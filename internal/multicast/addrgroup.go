// Package multicast is the application-level multicast substrate the proxy
// engine fans a session's output out with: an AddrGroup names the downstream
// UDP receivers — the wireless stations of the paper's FEC experiments, the
// participants of a collaborative session — and the engine writes every
// datagram to each of them itself.
package multicast

import (
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
)

// AddrGroup is the engine-facing face of a multicast group: a dynamic set of
// downstream UDP receiver addresses a proxy session fans its output out to.
// An AddrGroup only names destinations — the engine writes raw datagrams to
// every address itself, so the relay hot path stays allocation-free: the
// snapshot is a shared, immutable slice. Membership changes
// (receivers joining and leaving the session) happen on the control path and
// rebuild the snapshot.
type AddrGroup struct {
	name string

	mu      sync.Mutex
	members map[netip.AddrPort]struct{}
	snap    atomic.Pointer[[]netip.AddrPort]
	version atomic.Uint64
}

// NewAddrGroup returns an empty group.
func NewAddrGroup(name string) *AddrGroup {
	return &AddrGroup{name: name, members: make(map[netip.AddrPort]struct{})}
}

// UnmapAddrPort returns the address with any 4-in-6 mapping stripped, the
// canonical form the group stores and the engine compares: a dual-stack
// socket may report the same station as 1.2.3.4 or ::ffff:1.2.3.4 depending
// on how it sent.
func UnmapAddrPort(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Name returns the group name.
func (g *AddrGroup) Name() string { return g.name }

// Add joins an address to the group, reporting whether it was new. The
// address is unmapped (4-in-6 stripped) so writes work regardless of the
// sending socket's address family.
func (g *AddrGroup) Add(ap netip.AddrPort) bool {
	ap = UnmapAddrPort(ap)
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.members[ap]; ok {
		return false
	}
	g.members[ap] = struct{}{}
	g.rebuildLocked()
	return true
}

// Remove leaves an address from the group, reporting whether it was present.
func (g *AddrGroup) Remove(ap netip.AddrPort) bool {
	ap = UnmapAddrPort(ap)
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.members[ap]; !ok {
		return false
	}
	delete(g.members, ap)
	g.rebuildLocked()
	return true
}

// Len returns the current member count.
func (g *AddrGroup) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// Contains reports whether the address is a member. The engine uses this to
// authorize receiver feedback: only stations the session actually fans out
// to may steer its FEC level.
func (g *AddrGroup) Contains(ap netip.AddrPort) bool {
	ap = UnmapAddrPort(ap)
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.members[ap]
	return ok
}

// Version returns a counter that increments on every membership change. A
// consumer that derives per-member state from the group (the engine's
// delivery tree maps each member to a receiver branch) compares the version
// it last reconciled against with one atomic load per packet, and only walks
// the membership when they differ.
func (g *AddrGroup) Version() uint64 { return g.version.Load() }

// SnapshotVersion returns the membership snapshot together with the version
// it corresponds to, as one consistent pair. Reconcilers use this so a
// membership change racing the read is observed as a version they have not
// caught up with yet, never as a stale snapshot filed under a fresh version.
func (g *AddrGroup) SnapshotVersion() ([]netip.AddrPort, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.snap.Load()
	if p == nil {
		return nil, g.version.Load()
	}
	return *p, g.version.Load()
}

// rebuildLocked publishes a fresh sorted snapshot; caller holds g.mu.
func (g *AddrGroup) rebuildLocked() {
	g.version.Add(1)
	if len(g.members) == 0 {
		g.snap.Store(nil)
		return
	}
	out := make([]netip.AddrPort, 0, len(g.members))
	for ap := range g.members {
		out = append(out, ap)
	}
	slices.SortFunc(out, func(a, b netip.AddrPort) int { return a.Compare(b) })
	g.snap.Store(&out)
}
