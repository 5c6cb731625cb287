// Package multicast provides the application-level multicast substrate the
// Pavilion framework uses to deliver URL requests and content to every
// participant in a collaborative session, and which the FEC proxy uses to
// reach multiple wireless receivers. Groups deliver packets to in-memory
// members; the engine's fan-out reaches UDP receivers through an AddrGroup.
package multicast

import (
	"errors"
	"fmt"
	"sync"

	"rapidware/internal/packet"
)

// Errors returned by groups.
var (
	// ErrMemberExists is returned when joining with a duplicate name.
	ErrMemberExists = errors.New("multicast: member already joined")
	// ErrNoSuchMember is returned when leaving with an unknown name.
	ErrNoSuchMember = errors.New("multicast: no such member")
	// ErrGroupClosed is returned by Send after Close.
	ErrGroupClosed = errors.New("multicast: group closed")
)

// Member receives packets multicast to a group.
type Member interface {
	// Name identifies the member within the group.
	Name() string
	// Deliver hands one packet to the member. Implementations must not
	// retain the packet.
	Deliver(*packet.Packet) error
	// Close releases the member's resources.
	Close() error
}

// BufferMember is an in-process member backed by a bounded packet buffer.
type BufferMember struct {
	name string
	buf  *packet.Buffer
}

// NewBufferMember returns a member with a delivery queue of the given size.
func NewBufferMember(name string, queueSize int) *BufferMember {
	if queueSize <= 0 {
		queueSize = 256
	}
	return &BufferMember{name: name, buf: packet.NewBuffer(queueSize)}
}

// Name implements Member.
func (m *BufferMember) Name() string { return m.name }

// Deliver implements Member.
func (m *BufferMember) Deliver(p *packet.Packet) error {
	return m.buf.TryPut(p.Clone())
}

// Close implements Member.
func (m *BufferMember) Close() error {
	m.buf.Close()
	return nil
}

// Receive returns the next delivered packet, blocking until one arrives or
// the member is closed.
func (m *BufferMember) Receive() (*packet.Packet, error) {
	return m.buf.Get()
}

// Pending returns the number of packets waiting to be received.
func (m *BufferMember) Pending() int { return m.buf.Len() }

// Group is a named multicast group. Send delivers a packet to every joined
// member; members with failing deliveries are counted but do not abort the
// send (matching IP multicast semantics where receivers fail independently).
type Group struct {
	name string

	mu      sync.Mutex
	members map[string]Member
	seq     uint64
	sent    uint64
	errs    uint64
	closed  bool
}

// NewGroup returns an empty group.
func NewGroup(name string) *Group {
	return &Group{name: name, members: make(map[string]Member)}
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Join adds a member.
func (g *Group) Join(m Member) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrGroupClosed
	}
	if _, ok := g.members[m.Name()]; ok {
		return fmt.Errorf("%w: %q", ErrMemberExists, m.Name())
	}
	g.members[m.Name()] = m
	return nil
}

// Leave removes a member (the member is not closed; the caller owns it).
func (g *Group) Leave(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.members[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchMember, name)
	}
	delete(g.members, name)
	return nil
}

// Members returns the current member names.
func (g *Group) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.members))
	for n := range g.members {
		out = append(out, n)
	}
	return out
}

// Send multicasts p to every member, stamping a group-wide sequence number.
// It returns the number of successful deliveries.
func (g *Group) Send(p *packet.Packet) (int, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, ErrGroupClosed
	}
	p.Seq = g.seq
	g.seq++
	g.sent++
	members := make([]Member, 0, len(g.members))
	for _, m := range g.members {
		members = append(members, m)
	}
	g.mu.Unlock()

	delivered := 0
	for _, m := range members {
		if err := m.Deliver(p); err != nil {
			g.mu.Lock()
			g.errs++
			g.mu.Unlock()
			continue
		}
		delivered++
	}
	return delivered, nil
}

// Stats returns the number of packets sent and the number of failed
// per-member deliveries.
func (g *Group) Stats() (sent, deliveryErrors uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sent, g.errs
}

// Close closes the group and every member.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	members := make([]Member, 0, len(g.members))
	for _, m := range g.members {
		members = append(members, m)
	}
	g.mu.Unlock()
	var firstErr error
	for _, m := range members {
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
