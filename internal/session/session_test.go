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
	s, err := New(testFetcher())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
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
	for name, p := range map[string]*Participant{"leader": leader, "wireless-laptop": s1, "palmtop": s2} {
		hist := p.History()
		if len(hist) != 2 {
			t.Fatalf("%s history = %d entries, want 2", name, len(hist))
		}
		for i, v := range hist {
			if v.URL != urls[i] || v.Leader != "leader" {
				t.Fatalf("%s visit %d = %+v", name, i, v)
			}
			if len(v.Content) == 0 {
				t.Fatalf("%s visit %d has no content", name, i)
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
	leaders := []string{s.Leader()} // the leader after each floor event
	leader := func() string {
		leaders = append(leaders, s.Leader())
		return leaders[len(leaders)-1]
	}
	if err := s.RequestFloor("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.RequestFloor("c"); err != nil {
		t.Fatal(err)
	}
	if err := s.RequestFloor("b"); err != nil {
		t.Fatal("re-request should be a silent no-op")
	}
	if got := s.floorQueue; len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("floor queue = %v", got)
	}
	// Leader releases: b takes over, then c.
	if err := s.ReleaseFloor("a"); err != nil {
		t.Fatal(err)
	}
	if l := leader(); l != "b" {
		t.Fatalf("Leader = %q, want b", l)
	}
	if err := s.ReleaseFloor("a"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("stale release err = %v", err)
	}
	if err := s.ReleaseFloor("b"); err != nil {
		t.Fatal(err)
	}
	if l := leader(); l != "c" {
		t.Fatalf("Leader = %q, want c", l)
	}
	// No one queued: releasing leaves the session leaderless.
	if err := s.ReleaseFloor("c"); err != nil {
		t.Fatal(err)
	}
	if l := leader(); l != "" {
		t.Fatalf("Leader = %q, want empty", l)
	}
	// A new request grants immediately when leaderless.
	if err := s.RequestFloor("a"); err != nil {
		t.Fatal(err)
	}
	if l := leader(); l != "a" {
		t.Fatalf("Leader = %q, want a", l)
	}
	if got := fmt.Sprintf("%q", leaders); got != `["a" "b" "c" "" "a"]` {
		t.Fatalf("leaders %s, want a, b, c, none, then a: three grants in FIFO order", got)
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
	for i, p := range participants {
		if len(p.History()) != loads {
			t.Fatalf("member-%d observed %d loads, want %d", i, len(p.History()), loads)
		}
	}
}
