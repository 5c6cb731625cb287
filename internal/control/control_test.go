package control

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer(nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startStreamServer serves one compose.Live as session 1 the way rapidproxy
// -mode stream does. The management-plane tests move no data, so the plan's
// executor is a bare FrameChain.
func startStreamServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	live, err := compose.Attach(filter.NewFrameChain((*packet.Buf).Release), compose.Default(), compose.Env{StreamID: 1}, compose.ModeChain, compose.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t)
	s.SetSessionSource(compose.NewStreamSession(live))
	return s, dialClient(t, addr)
}

func TestRequestValidate(t *testing.T) {
	cases := []struct {
		req Request
		ok  bool
	}{
		{Request{Op: OpPing}, true},
		{Request{Op: OpKinds}, true},
		{Request{Op: OpSessions}, true},
		{Request{Op: OpStats}, true},
		{Request{Op: OpInsert, Session: "1", Stage: "null"}, true},
		{Request{Op: OpInsert, Stage: "null"}, false}, // no session
		{Request{Op: OpRemove, Session: "1", Stage: "0"}, true},
		{Request{Op: OpRemove, Stage: "0"}, false}, // no session
		{Request{Op: OpMove, Session: "1", Position: 1}, true},
		{Request{Op: OpMove, Position: 1, Target: 2}, false}, // no session
		{Request{Op: Op("status")}, false},
		{Request{Op: Op("upload")}, false},
		{Request{Op: Op("bogus")}, false},
	}
	for _, c := range cases {
		err := c.req.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.req, err, c.ok)
		}
	}
}

// TestHandleUnknownOpAndProxy: the server answers only for its one attached
// session source — unknown ops and sessions it does not serve both fail.
func TestHandleUnknownOpAndProxy(t *testing.T) {
	s, _ := startStreamServer(t)
	if resp := s.Handle(Request{Op: Op("bogus")}); resp.OK {
		t.Fatal("unknown op should fail")
	}
	if resp := s.Handle(Request{Op: OpInsert, Session: "2", Stage: "counting"}); resp.OK || !strings.Contains(resp.Error, "unknown session") {
		t.Fatalf("insert into a session the stream does not serve = %+v", resp)
	}
}

func TestClientServerStatusAndKinds(t *testing.T) {
	_, c := startStreamServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	sessions, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].ID != 1 || sessions[0].Chain != "" {
		t.Fatalf("Sessions = %+v", sessions)
	}
	kinds, err := c.Kinds()
	if err != nil {
		t.Fatal(err)
	}
	if !contains(kinds, "null") || !contains(kinds, "fec-encode") {
		t.Fatalf("Kinds = %v", kinds)
	}
}

func TestClientServerInsertRemoveMove(t *testing.T) {
	_, c := startStreamServer(t)
	steps := []struct {
		op   func() (string, error)
		want string
	}{
		{func() (string, error) { return c.SessionInsert(1, "", "counting", 0) }, "counting"},
		{func() (string, error) { return c.SessionInsert(1, "", "checksum", 1) }, "counting,checksum"},
		{func() (string, error) { return c.SessionMove(1, "", 0, 1) }, "checksum,counting"},
		{func() (string, error) { return c.SessionRemove(1, "", "checksum") }, "counting"},
		{func() (string, error) { return c.SessionRemove(1, "", "0") }, ""},
	}
	for i, st := range steps {
		chain, err := st.op()
		if err != nil || chain != st.want {
			t.Fatalf("step %d = %q, %v; want %q", i, chain, err, st.want)
		}
	}
	// Errors propagate as errors with the server's message.
	if _, err := c.SessionInsert(1, "", "no-such-kind", 0); err == nil || !strings.Contains(err.Error(), "unknown chain stage") {
		t.Fatalf("unknown kind err = %v", err)
	}
	if _, err := c.SessionRemove(1, "", "99"); err == nil {
		t.Fatal("expected error for bad position")
	}
}

// TestClientRoundTripDeadline: a server that accepts and never replies fails
// the call rather than hanging it, and the connection is not reused.
func TestClientRoundTripDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var sink [1024]byte
		for {
			if _, err := conn.Read(sink[:]); err != nil {
				return
			}
		}
	}()
	c := dialClient(t, ln.Addr().String())
	c.timeout = 100 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Stats()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Stats succeeded against a silent server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats blocked on a silent server")
	}
	if _, err := c.Sessions(); err == nil {
		t.Fatal("a timed-out connection was reused")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 50*time.Millisecond); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, _ := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func contains(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// stubSessions is a fixed SessionSource for testing the engine plumbing.
type stubSessions []metrics.SessionStats

func (s stubSessions) SessionStats() []metrics.SessionStats { return s }

func TestSessionsOverTheWire(t *testing.T) {
	stats := stubSessions{
		{ID: 1, Packets: 10, Bytes: 1000, OutPackets: 9, OutBytes: 900, Repairs: 2, Drops: 1},
		{ID: 7, Packets: 3, Bytes: 300},
	}
	s, addr := startServer(t)
	s.SetSessionSource(stats)
	c := dialClient(t, addr)

	got, err := c.Sessions()
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if len(got) != 2 || got[0].ID != 1 || got[0].Repairs != 2 || got[1].ID != 7 {
		t.Fatalf("Sessions = %+v", got)
	}
}

// stubEngine is a fixed EngineSource for testing the stats plumbing.
type stubEngine struct {
	stubSessions
	engine metrics.EngineStats
	shards []metrics.ShardStats
}

func (s stubEngine) EngineStats() metrics.EngineStats { return s.engine }
func (s stubEngine) ShardStats() []metrics.ShardStats { return s.shards }

func TestStatsOverTheWire(t *testing.T) {
	src := stubEngine{
		engine: metrics.EngineStats{ActiveSessions: 2, TotalSessions: 5, Datagrams: 100, Shards: 4, BatchedWrites: 90, WriteFlushes: 30},
		shards: []metrics.ShardStats{{Shard: 0, Sessions: 1, Datagrams: 60}, {Shard: 1, Sessions: 1, Datagrams: 40}},
	}
	s, addr := startServer(t)
	s.SetSessionSource(src)
	c := dialClient(t, addr)

	eng, shards, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if eng == nil || eng.Shards != 4 || eng.Datagrams != 100 || eng.BatchedWrites != 90 {
		t.Fatalf("engine stats = %+v", eng)
	}
	if len(shards) != 2 || shards[0].Datagrams != 60 || shards[1].Shard != 1 {
		t.Fatalf("shard stats = %+v", shards)
	}
}

func TestStatsWithoutEngine(t *testing.T) {
	// A plain SessionSource (no shard plane) cannot answer stats.
	s, addr := startServer(t)
	s.SetSessionSource(stubSessions{{ID: 1}})
	c := dialClient(t, addr)
	if _, _, err := c.Stats(); err == nil {
		t.Fatal("Stats succeeded without an engine attached")
	}
}

func TestSessionsWithoutSource(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr)
	got, err := c.Sessions()
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("Sessions = %+v, want empty", got)
	}
}

// stubComposer records session-scoped composition calls.
type stubComposer struct {
	stubSessions
	kinds    []string
	lastCall string
	lastID   uint32
	lastRx   string
	failWith error
}

func (s *stubComposer) Kinds() []string { return s.kinds }

func (s *stubComposer) RecomposeSession(id uint32, receiver, target string) (string, error) {
	s.lastCall, s.lastID, s.lastRx = "recompose:"+target, id, receiver
	if s.failWith != nil {
		return "", s.failWith
	}
	return target, nil
}

func (s *stubComposer) InsertSessionStage(id uint32, receiver, stage string, pos int) (string, error) {
	s.lastCall, s.lastID, s.lastRx = fmt.Sprintf("insert:%s@%d", stage, pos), id, receiver
	return stage, nil
}

func (s *stubComposer) RemoveSessionStage(id uint32, receiver, sel string) (string, error) {
	s.lastCall, s.lastID, s.lastRx = "remove:"+sel, id, receiver
	return "", nil
}

func (s *stubComposer) MoveSessionStage(id uint32, receiver string, from, to int) (string, error) {
	s.lastCall, s.lastID, s.lastRx = fmt.Sprintf("move:%d->%d", from, to), id, receiver
	return "moved", nil
}

func TestSessionComposeOverTheWire(t *testing.T) {
	comp := &stubComposer{kinds: []string{"counting", "fec-adapt"}}
	s, addr := startServer(t)
	s.SetSessionSource(comp)
	c := dialClient(t, addr)

	chain, err := c.Compose(7, "", "counting,thin=2")
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	if chain != "counting,thin=2" || comp.lastID != 7 || comp.lastCall != "recompose:counting,thin=2" {
		t.Fatalf("compose dispatch: chain=%q call=%q id=%d", chain, comp.lastCall, comp.lastID)
	}
	// Session 0 is addressable (the ID travels as a string).
	if _, err := c.Compose(0, "10.0.0.1:9000", ""); err != nil {
		t.Fatalf("Compose session 0: %v", err)
	}
	if comp.lastID != 0 || comp.lastRx != "10.0.0.1:9000" {
		t.Fatalf("session-0 dispatch: id=%d rx=%q", comp.lastID, comp.lastRx)
	}

	if chain, err = c.SessionInsert(9, "", "delay=5ms", 1); err != nil || chain != "delay=5ms" {
		t.Fatalf("SessionInsert = %q, %v", chain, err)
	}
	if comp.lastCall != "insert:delay=5ms@1" {
		t.Fatalf("insert dispatch: %q", comp.lastCall)
	}
	if _, err = c.SessionRemove(9, "", "counting"); err != nil {
		t.Fatalf("SessionRemove: %v", err)
	}
	if comp.lastCall != "remove:counting" {
		t.Fatalf("remove dispatch: %q", comp.lastCall)
	}
	if chain, err = c.SessionMove(9, "", 0, 2); err != nil || chain != "moved" {
		t.Fatalf("SessionMove = %q, %v", chain, err)
	}
	if comp.lastCall != "move:0->2" {
		t.Fatalf("move dispatch: %q", comp.lastCall)
	}

	// The kind listing comes from the composer.
	kinds, err := c.Kinds()
	if err != nil {
		t.Fatalf("Kinds: %v", err)
	}
	if !contains(kinds, "fec-adapt") {
		t.Fatalf("Kinds = %v", kinds)
	}

	// Composer errors propagate to the client.
	comp.failWith = errors.New("engine: unknown session")
	if _, err := c.Compose(404, "", "counting"); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestSessionComposeWithoutComposer(t *testing.T) {
	s, _ := startServer(t)
	resp := s.Handle(Request{Op: OpRecompose, Session: "1", Chain: "counting"})
	if resp.OK || !strings.Contains(resp.Error, "no composable engine") {
		t.Fatalf("recompose without composer = %+v", resp)
	}
	resp = s.Handle(Request{Op: OpInsert, Session: "zzz", Stage: "counting"})
	if resp.OK || !strings.Contains(resp.Error, "no composable engine") {
		t.Fatalf("bad-session insert = %+v", resp)
	}
	s.SetSessionSource(&stubComposer{})
	resp = s.Handle(Request{Op: OpInsert, Session: "zzz", Stage: "counting"})
	if resp.OK || !strings.Contains(resp.Error, "session ID") {
		t.Fatalf("unparsable session ID = %+v", resp)
	}
}

func TestSessionRequestValidation(t *testing.T) {
	bad := []Request{
		{Op: OpRecompose},            // missing session
		{Op: OpInsert, Session: "1"}, // missing stage
		{Op: OpRemove, Session: "1"}, // missing selector
	}
	for _, req := range bad {
		if err := req.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted an invalid request", req)
		}
	}
	good := []Request{
		{Op: OpRecompose, Session: "0"}, // empty Chain = pure relay
		{Op: OpInsert, Session: "1", Stage: "counting"},
		{Op: OpRemove, Session: "1", Stage: "0"},
		{Op: OpMove, Session: "1"},
	}
	for _, req := range good {
		if err := req.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v", req, err)
		}
	}
}
