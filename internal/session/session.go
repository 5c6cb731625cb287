// Package session implements the Pavilion collaborative-session substrate the
// paper builds on: a leadership (floor control) protocol that decides which
// participant drives the session, and collaborative web browsing in which
// every participant observes the leader's URL loads, with proxies free to
// filter or transcode the content on its way to resource-limited devices.
// The session is in-process: a load is recorded in every participant's
// history directly.
package session

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by sessions.
var (
	// ErrNotLeader is returned when a non-leader attempts a leader-only
	// operation such as LoadURL or releasing the floor.
	ErrNotLeader = errors.New("session: not the leader")
	// ErrUnknownMember is returned for operations naming an unknown member.
	ErrUnknownMember = errors.New("session: unknown member")
	// ErrAlreadyJoined is returned when a member name is already in use.
	ErrAlreadyJoined = errors.New("session: member already joined")
)

// Fetcher retrieves web content on behalf of the leader (typically the
// leader's HTTP proxy, possibly caching — see internal/cache).
type Fetcher func(url string) ([]byte, error)

// PageVisit records one collaborative browse step observed by a member.
type PageVisit struct {
	URL     string
	Content []byte
	Leader  string
}

// Participant is one member of a collaborative session: it accumulates the
// browsing history it observes.
type Participant struct {
	mu   sync.Mutex
	hist []PageVisit
}

// History returns the pages this participant has observed, in order.
func (p *Participant) History() []PageVisit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]PageVisit(nil), p.hist...)
}

func (p *Participant) record(v PageVisit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hist = append(p.hist, v)
}

// Session is a Pavilion collaborative browsing session with floor control.
// The leader is the only participant allowed to load URLs; other members may
// request the floor and are granted leadership in FIFO order when the current
// leader releases it (the "leadership protocol for session floor control").
type Session struct {
	fetcher Fetcher

	mu           sync.Mutex
	participants map[string]*Participant
	leader       string
	floorQueue   []string
}

// New returns a session. fetcher retrieves content for the leader's loads.
func New(fetcher Fetcher) (*Session, error) {
	if fetcher == nil {
		return nil, errors.New("session: fetcher is required")
	}
	return &Session{
		fetcher:      fetcher,
		participants: make(map[string]*Participant),
	}, nil
}

// Join adds a participant. The first participant to join becomes the leader,
// as in Pavilion where the session creator initially holds the floor.
func (s *Session) Join(name string) (*Participant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.participants[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyJoined, name)
	}
	p := &Participant{}
	s.participants[name] = p
	if s.leader == "" {
		s.leader = name
	}
	return p, nil
}

// Leader returns the current leader's name ("" when leaderless).
func (s *Session) Leader() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leader
}

// Members returns the participant names.
func (s *Session) Members() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.participants))
	for n := range s.participants {
		out = append(out, n)
	}
	return out
}

// RequestFloor asks for leadership. If the session is leaderless the floor is
// granted immediately; otherwise the request is queued in FIFO order.
func (s *Session) RequestFloor(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.participants[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMember, name)
	}
	if s.leader == name {
		return nil // already holds the floor
	}
	for _, queued := range s.floorQueue {
		if queued == name {
			return nil // already queued
		}
	}
	s.floorQueue = append(s.floorQueue, name)
	if s.leader == "" {
		s.grantNextLocked()
	}
	return nil
}

// ReleaseFloor passes leadership to the next queued requester. Only the
// current leader may release the floor.
func (s *Session) ReleaseFloor(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leader != name {
		return fmt.Errorf("%w: %q", ErrNotLeader, name)
	}
	s.leader = ""
	s.grantNextLocked()
	return nil
}

// grantNextLocked promotes the next queued requester. Caller holds the lock.
func (s *Session) grantNextLocked() {
	for len(s.floorQueue) > 0 {
		next := s.floorQueue[0]
		s.floorQueue = s.floorQueue[1:]
		if _, ok := s.participants[next]; ok {
			s.leader = next
			return
		}
	}
}

// LoadURL is the collaborative browse operation: the leader fetches the URL
// (through its proxy) and the visit — URL and content — is recorded in every
// participant's history.
func (s *Session) LoadURL(leader, url string) error {
	s.mu.Lock()
	if s.leader != leader {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotLeader, leader)
	}
	participants := make([]*Participant, 0, len(s.participants))
	for _, p := range s.participants {
		participants = append(participants, p)
	}
	s.mu.Unlock()

	content, err := s.fetcher(url)
	if err != nil {
		return fmt.Errorf("session: fetch %s: %w", url, err)
	}
	visit := PageVisit{URL: url, Content: content, Leader: leader}
	for _, p := range participants {
		p.record(visit)
	}
	return nil
}
