package session

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func testFetcher() Fetcher {
	return func(url string) ([]byte, error) {
		if url == "http://unreachable" {
			return nil, errors.New("host unreachable")
		}
		return []byte("<html>" + url + "</html>"), nil
	}
}

func newSession(t *testing.T) *Session {
	t.Helper()
	s, err := New("lecture", testFetcher())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil); err == nil {
		t.Fatal("expected error for nil fetcher")
	}
}

func TestFirstJoinerBecomesLeader(t *testing.T) {
	s := newSession(t)
	if _, err := s.Join("instructor"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join("student-1"); err != nil {
		t.Fatal(err)
	}
	if s.Leader() != "instructor" {
		t.Fatalf("Leader = %q", s.Leader())
	}
	if len(s.Members()) != 2 {
		t.Fatalf("Members = %v", s.Members())
	}
	if _, err := s.Join("instructor"); !errors.Is(err, ErrAlreadyJoined) {
		t.Fatalf("duplicate join err = %v", err)
	}
}

func TestLoadURLMulticastsToAllParticipants(t *testing.T) {
	s := newSession(t)
	leader, _ := s.Join("leader")
	s1, _ := s.Join("wireless-laptop")
	s2, _ := s.Join("palmtop")

	urls := []string{"http://example.com/a", "http://example.com/b"}
	for _, u := range urls {
		if err := s.LoadURL("leader", u); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []*Participant{leader, s1, s2} {
		hist := p.History()
		if len(hist) != 2 {
			t.Fatalf("%s history = %d entries, want 2", p.Name(), len(hist))
		}
		for i, v := range hist {
			if v.URL != urls[i] || v.Leader != "leader" {
				t.Fatalf("%s visit %d = %+v", p.Name(), i, v)
			}
			if len(v.Content) == 0 {
				t.Fatalf("%s visit %d has no content", p.Name(), i)
			}
		}
	}
}

func TestLoadURLOnlyLeaderMayDrive(t *testing.T) {
	s := newSession(t)
	s.Join("leader")
	s.Join("student")
	if err := s.LoadURL("student", "http://example.com"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}

func TestLoadURLFetchError(t *testing.T) {
	s := newSession(t)
	s.Join("leader")
	if err := s.LoadURL("leader", "http://unreachable"); err == nil {
		t.Fatal("expected fetch error to propagate")
	}
}

func TestFloorControlFIFO(t *testing.T) {
	s := newSession(t)
	s.Join("a")
	s.Join("b")
	s.Join("c")
	if err := s.RequestFloor("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.RequestFloor("c"); err != nil {
		t.Fatal(err)
	}
	if err := s.RequestFloor("b"); err != nil {
		t.Fatal("re-request should be a silent no-op")
	}
	if got := s.FloorQueue(); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("FloorQueue = %v", got)
	}
	// Leader releases: b takes over, then c.
	if err := s.ReleaseFloor("a"); err != nil {
		t.Fatal(err)
	}
	if s.Leader() != "b" {
		t.Fatalf("Leader = %q, want b", s.Leader())
	}
	if err := s.ReleaseFloor("a"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("stale release err = %v", err)
	}
	if err := s.ReleaseFloor("b"); err != nil {
		t.Fatal(err)
	}
	if s.Leader() != "c" {
		t.Fatalf("Leader = %q, want c", s.Leader())
	}
	// No one queued: releasing leaves the session leaderless.
	if err := s.ReleaseFloor("c"); err != nil {
		t.Fatal(err)
	}
	if s.Leader() != "" {
		t.Fatalf("Leader = %q, want empty", s.Leader())
	}
	// A new request grants immediately when leaderless.
	if err := s.RequestFloor("a"); err != nil {
		t.Fatal(err)
	}
	if s.Leader() != "a" {
		t.Fatalf("Leader = %q, want a", s.Leader())
	}
	if s.Transfers() != 3 {
		t.Fatalf("Transfers = %d, want 3", s.Transfers())
	}
}

func TestFloorRequestValidation(t *testing.T) {
	s := newSession(t)
	s.Join("a")
	if err := s.RequestFloor("ghost"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("err = %v", err)
	}
	if err := s.RequestFloor("a"); err != nil {
		t.Fatal("leader re-requesting the floor should be a no-op")
	}
}

func TestLeaveTransfersLeadership(t *testing.T) {
	s := newSession(t)
	s.Join("leader")
	s.Join("next")
	s.RequestFloor("next")
	if err := s.Leave("leader"); err != nil {
		t.Fatal(err)
	}
	if s.Leader() != "next" {
		t.Fatalf("Leader = %q, want next", s.Leader())
	}
	if err := s.Leave("ghost"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("err = %v", err)
	}
}

func TestLeaveRemovesQueuedRequest(t *testing.T) {
	s := newSession(t)
	s.Join("a")
	s.Join("b")
	s.Join("c")
	s.RequestFloor("b")
	s.RequestFloor("c")
	s.Leave("b")
	s.ReleaseFloor("a")
	if s.Leader() != "c" {
		t.Fatalf("Leader = %q, want c (b left before being granted)", s.Leader())
	}
}

func TestLeaderLeavesWithEmptyQueue(t *testing.T) {
	s := newSession(t)
	s.Join("only")
	if err := s.Leave("only"); err != nil {
		t.Fatal(err)
	}
	if s.Leader() != "" {
		t.Fatalf("Leader = %q, want empty", s.Leader())
	}
}

func TestConcurrentBrowsing(t *testing.T) {
	s := newSession(t)
	s.Join("leader")
	var participants []*Participant
	for i := 0; i < 5; i++ {
		p, err := s.Join(fmt.Sprintf("member-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		participants = append(participants, p)
	}
	const loads = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loads; i++ {
			if err := s.LoadURL("leader", fmt.Sprintf("http://example.com/p%d", i)); err != nil {
				t.Errorf("load: %v", err)
				return
			}
		}
	}()
	// Concurrent floor requests must not interfere with browsing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.RequestFloor(fmt.Sprintf("member-%d", i%5))
		}
	}()
	wg.Wait()
	for _, p := range participants {
		if len(p.History()) != loads {
			t.Fatalf("%s observed %d loads, want %d", p.Name(), len(p.History()), loads)
		}
	}
}
