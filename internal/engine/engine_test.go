package engine

import (
	"errors"
	"log"
	"net"
	"net/netip"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// newTestEngine starts an engine on a loopback port and tears it down with
// the test.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// dialEngine returns a connected client socket for the engine.
func dialEngine(t *testing.T, e *Engine) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, e.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatalf("DialUDP: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sendPacket writes one engine datagram for session id carrying p.
func sendPacket(t *testing.T, c *net.UDPConn, id uint32, p *packet.Packet) {
	t.Helper()
	dgram, err := packet.AppendDatagram(nil, id, p)
	if err != nil {
		t.Fatalf("AppendDatagram: %v", err)
	}
	if _, err := c.Write(dgram); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

// readPacket reads one engine datagram and decodes it.
func readPacket(t *testing.T, c *net.UDPConn, timeout time.Duration) (uint32, *packet.Packet) {
	t.Helper()
	buf := make([]byte, packet.MaxDatagram)
	c.SetReadDeadline(time.Now().Add(timeout))
	n, err := c.Read(buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	id, frame, err := packet.SplitSessionID(buf[:n])
	if err != nil {
		t.Fatalf("SplitSessionID: %v", err)
	}
	p, _, err := packet.Unmarshal(frame)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return id, p
}

func TestEngineEchoRelay(t *testing.T) {
	e := newTestEngine(t, Config{})
	c := dialEngine(t, e)

	want := &packet.Packet{Seq: 7, StreamID: 9, Kind: packet.KindData, Payload: []byte("hello engine")}
	sendPacket(t, c, 42, want)
	id, got := readPacket(t, c, 2*time.Second)
	if id != 42 {
		t.Fatalf("echoed session id = %d, want 42", id)
	}
	if got.Seq != want.Seq || got.StreamID != want.StreamID || string(got.Payload) != string(want.Payload) {
		t.Fatalf("echoed packet %v, want %v", got, want)
	}
	if n := e.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d, want 1", n)
	}
	stats := slices.Collect(e.SessionStats)
	if len(stats) != 1 || stats[0].ID != 42 {
		t.Fatalf("SessionStats = %+v, want one entry for session 42", stats)
	}
	// The writer credits a send after the syscall returns, so the echo can
	// reach us a moment before its counter moves.
	waitFor(t, "1 in / 1 out on the session counters", func() bool {
		st := e.Session(42).Stats()
		return st.Packets == 1 && st.OutPackets == 1
	})
}

func TestEngineMultipleSessionsAreIndependent(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "counting"})
	c := dialEngine(t, e)

	const sessions = 8
	for id := uint32(1); id <= sessions; id++ {
		sendPacket(t, c, id, &packet.Packet{Seq: uint64(id), Kind: packet.KindData, Payload: []byte{byte(id)}})
	}
	seen := make(map[uint32]bool)
	for i := 0; i < sessions; i++ {
		id, p := readPacket(t, c, 2*time.Second)
		if len(p.Payload) != 1 || p.Payload[0] != byte(id) {
			t.Fatalf("session %d echoed payload %v", id, p.Payload)
		}
		seen[id] = true
	}
	if len(seen) != sessions {
		t.Fatalf("saw %d distinct sessions, want %d", len(seen), sessions)
	}
	if n := e.SessionCount(); n != sessions {
		t.Fatalf("SessionCount = %d, want %d", n, sessions)
	}
	// Each session runs its own counting stage.
	s := e.Session(3)
	if s == nil {
		t.Fatal("session 3 missing")
	}
	stages := s.Live().StageStats()
	if len(stages) != 1 || stages[0].Kind != "counting" || !stages[0].Active || stages[0].InBytes == 0 {
		t.Fatalf("stage stats = %+v, want one active counting stage that saw traffic", stages)
	}
}

func TestEngineSessionLimit(t *testing.T) {
	// One shard, so one reader admits the three sessions in send order: with
	// two readers on one socket, session 3's first datagram could be
	// admitted before session 1's or 2's.
	e := newTestEngine(t, Config{MaxSessions: 2, Shards: 1})
	c := dialEngine(t, e)

	for id := uint32(1); id <= 3; id++ {
		sendPacket(t, c, id, &packet.Packet{Kind: packet.KindData, Payload: []byte("x")})
	}
	// Sessions 1 and 2 echo; session 3 is refused.
	for i := 0; i < 2; i++ {
		id, _ := readPacket(t, c, 2*time.Second)
		if id != 1 && id != 2 {
			t.Fatalf("unexpected echo from session %d", id)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Rejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejected counter never incremented")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := e.SessionCount(); n != 2 {
		t.Fatalf("SessionCount = %d, want 2", n)
	}
}

// TestNewRejectsUnresolvableForward: New resolves Forward, as it resolves
// Fanout, so a bad address fails before any socket is bound. The port is out
// of range, so no resolver is asked.
func TestNewRejectsUnresolvableForward(t *testing.T) {
	if _, err := New(Config{Forward: "127.0.0.1:99999"}); err == nil {
		t.Fatal("New accepted Forward 127.0.0.1:99999")
	}
}

func TestEngineForwardMode(t *testing.T) {
	// Downstream receiver.
	down, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("downstream listen: %v", err)
	}
	defer down.Close()

	e := newTestEngine(t, Config{Forward: down.LocalAddr().String()})
	c := dialEngine(t, e)

	sendPacket(t, c, 5, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("downstream")})
	buf := make([]byte, packet.MaxDatagram)
	down.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := down.Read(buf)
	if err != nil {
		t.Fatalf("downstream read: %v", err)
	}
	id, frame, err := packet.SplitSessionID(buf[:n])
	if err != nil {
		t.Fatalf("SplitSessionID: %v", err)
	}
	if id != 5 {
		t.Fatalf("forwarded session id = %d, want 5", id)
	}
	p, _, err := packet.Unmarshal(frame)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if string(p.Payload) != "downstream" {
		t.Fatalf("forwarded payload %q", p.Payload)
	}
}

func TestEngineFECChainEmitsParity(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "fec-encode=6/4"})
	c := dialEngine(t, e)

	for i := 0; i < 4; i++ {
		sendPacket(t, c, 9, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i), 0xAA}})
	}
	var data, parity int
	for i := 0; i < 6; i++ {
		_, p := readPacket(t, c, 2*time.Second)
		switch p.Kind {
		case packet.KindData:
			data++
		case packet.KindParity:
			parity++
		}
	}
	if data != 4 || parity != 2 {
		t.Fatalf("got %d data / %d parity packets, want 4/2", data, parity)
	}
}

func TestEngineFECEncodeDecodeRoundTrip(t *testing.T) {
	// Encoder and decoder back to back in one chain: data packets should come
	// out exactly once each, parity should be absorbed.
	e := newTestEngine(t, Config{Chain: "fec-encode=6/4,fec-decode"})
	c := dialEngine(t, e)

	for i := 0; i < 4; i++ {
		sendPacket(t, c, 11, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	for i := 0; i < 4; i++ {
		_, p := readPacket(t, c, 2*time.Second)
		if p.Kind != packet.KindData {
			t.Fatalf("packet %d: kind %v, want data", i, p.Kind)
		}
	}
	// No parity should remain queued for the client.
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Read(make([]byte, packet.MaxDatagram)); err == nil {
		t.Fatal("unexpected extra datagram after decoded stream")
	}
}

func TestEngineCloseSession(t *testing.T) {
	e := newTestEngine(t, Config{})
	c := dialEngine(t, e)

	sendPacket(t, c, 1, &packet.Packet{Kind: packet.KindData, Payload: []byte("x")})
	readPacket(t, c, 2*time.Second)
	if err := e.CloseSession(1); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if n := e.SessionCount(); n != 0 {
		t.Fatalf("SessionCount = %d after close, want 0", n)
	}
	if err := e.CloseSession(1); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("CloseSession again = %v, want ErrUnknownSession", err)
	}
	// A new datagram on the same ID opens a fresh session.
	sendPacket(t, c, 1, &packet.Packet{Kind: packet.KindData, Payload: []byte("y")})
	_, p := readPacket(t, c, 2*time.Second)
	if string(p.Payload) != "y" {
		t.Fatalf("payload after session reopen = %q", p.Payload)
	}
}

func TestEngineMalformedDatagramsCounted(t *testing.T) {
	e := newTestEngine(t, Config{})
	c := dialEngine(t, e)

	if _, err := c.Write([]byte{0x01}); err != nil { // shorter than a session ID
		t.Fatalf("Write: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Malformed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("malformed counter never incremented")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := e.SessionCount(); n != 0 {
		t.Fatalf("SessionCount = %d, want 0", n)
	}
}

func TestEngineChainDyingDuringOpenDoesNotBlackholeID(t *testing.T) {
	// A custom kind whose builder hands out one instance that another chain
	// already runs cannot be spliced into a session's executor: building the
	// session fails cleanly at the splice, before it is registered. The ID
	// must never be blackholed by a dead session, and the admission slot must
	// be released.
	e := newTestEngine(t, Config{MaxSessions: 2})
	shared := filter.NewNull("insta-fail")
	if err := filter.NewFrameChain((*packet.Buf).Release).SetInterior([]filter.Filter{shared}); err != nil {
		t.Fatal(err)
	}
	withStage(t, e, compose.Definition{
		Kind:  "insta-fail",
		Build: func(compose.Env, string) (filter.Filter, error) { return shared, nil },
	}, "insta-fail")
	peer := netip.MustParseAddrPort("127.0.0.1:9")
	for i := 0; i < 30; i++ {
		if _, err := e.openSession(77, peer); err == nil || !strings.Contains(err.Error(), "already running") {
			t.Fatalf("iteration %d: openSession = %v, want the splice refused", i, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for e.SessionCount() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("iteration %d: dead session still registered", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// With the failing stage gone, the same engine must still open healthy
	// sessions: the loop above may not leak admission slots (MaxSessions is
	// only 2). A just-finished eviction may still be releasing its slot, so
	// tolerate a brief ErrSessionLimit window.
	e.trunkPlan = compose.Plan{}
	deadline := time.Now().Add(2 * time.Second)
	for {
		s, err := e.openSession(500, peer)
		if err == nil && s != nil {
			break
		}
		if !errors.Is(err, ErrSessionLimit) || time.Now().After(deadline) {
			t.Fatalf("healthy openSession after dead-chain churn: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineReusePortRejectedWithoutSupport checks New's gate: a build
// without the SO_REUSEPORT path (another OS or architecture, or "purego")
// rejects the option up front, and a build with it accepts it.
func TestEngineReusePortRejectedWithoutSupport(t *testing.T) {
	e, err := New(Config{ListenAddr: "127.0.0.1:0", ReusePort: true})
	if !reusePortAvailable {
		if err == nil {
			t.Fatal("New accepted ReusePort on a build without SO_REUSEPORT support")
		}
		return
	}
	if err != nil {
		t.Fatalf("New rejected ReusePort on a build with SO_REUSEPORT support: %v", err)
	}
	e.Close()
}

func TestEngineShardedStatsAggregate(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 4})
	c := dialEngine(t, e)

	const sessions = 16
	for id := uint32(1); id <= sessions; id++ {
		sendPacket(t, c, id, &packet.Packet{Seq: uint64(id), Kind: packet.KindData, Payload: []byte{byte(id)}})
	}
	for i := 0; i < sessions; i++ {
		readPacket(t, c, 2*time.Second)
	}
	st := e.Stats()
	if st.Shards != 4 {
		t.Fatalf("Stats.Shards = %d, want 4", st.Shards)
	}
	if st.ActiveSessions != sessions || st.TotalSessions != sessions {
		t.Fatalf("sessions = %d active / %d total, want %d/%d", st.ActiveSessions, st.TotalSessions, sessions, sessions)
	}
	if st.Datagrams < sessions {
		t.Fatalf("Datagrams = %d, want >= %d", st.Datagrams, sessions)
	}
	if st.BatchedWrites < sessions || st.WriteFlushes == 0 {
		t.Fatalf("writer counters = %d writes / %d flushes, want >= %d / > 0", st.BatchedWrites, st.WriteFlushes, sessions)
	}
	// The per-shard breakdown must sum to the aggregate and agree with each
	// session's reported placement.
	shardSessions := make(map[int]int)
	for ss := range e.SessionStats {
		shardSessions[ss.Shard]++
	}
	var total int
	for _, sh := range e.ShardStats() {
		total += sh.Sessions
		if sh.Sessions != shardSessions[sh.Shard] {
			t.Fatalf("shard %d owns %d sessions but session stats place %d there",
				sh.Shard, sh.Sessions, shardSessions[sh.Shard])
		}
	}
	if total != sessions {
		t.Fatalf("shard sessions sum to %d, want %d", total, sessions)
	}
}

// TestEngineChainTranscodeStage checks the transcode wiring end to end: an
// engine chain with an audio downsampler halves every data payload.
// engineGoroutines counts the goroutine profile's goroutines running in this
// package, keyed by their pprof labels and outermost engine function
// ("{labels} (*shard).readLoop+0x..."; "{} ..." when unlabelled).
func engineGoroutines(t *testing.T) map[string]int {
	t.Helper()
	var prof strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	// Records are separated by blank lines; each starts "<count> @ ..." and
	// may carry a "# labels: {...}" line before its stack.
	for _, rec := range strings.Split(prof.String(), "\n\n") {
		head, _, _ := strings.Cut(rec, " @ ")
		n, err := strconv.Atoi(strings.TrimSpace(head))
		if err != nil {
			continue
		}
		labels := "{}"
		if _, after, ok := strings.Cut(rec, "# labels: "); ok {
			labels, _, _ = strings.Cut(after, "\n")
		}
		outer := ""
		for _, f := range strings.Fields(rec) {
			if _, fn, ok := strings.Cut(f, "internal/engine."); ok && !strings.Contains(fn, "_test") {
				outer = fn
			}
		}
		if outer != "" {
			seen[labels+" "+outer] += n
		}
	}
	return seen
}

// TestShardLoopsCarryPprofLabels: every shard's reader carries shard=<idx>
// and loop=reader, and the maintenance goroutine loop=maint, so a goroutine
// or CPU profile splits per shard and per loop. There is no writer.
func TestShardLoopsCarryPprofLabels(t *testing.T) {
	newTestEngine(t, Config{Shards: 2, IdleTTL: time.Minute})
	want := []string{
		`{"loop":"reader", "shard":"0"} (*shard).readLoop+`,
		`{"loop":"reader", "shard":"1"} (*shard).readLoop+`,
		`{"loop":"maint"} (*Engine).maintenanceLoop+`,
	}
	var missing []string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		seen := engineGoroutines(t)
		missing = missing[:0]
		for _, w := range want {
			found := false
			for s := range seen {
				if strings.Contains(s, "writer") {
					t.Fatalf("goroutine profile holds a writer: %s", s)
				}
				found = found || strings.HasPrefix(s, w)
			}
			if !found {
				missing = append(missing, w)
			}
		}
		if len(missing) == 0 {
			return
		}
	}
	t.Fatalf("goroutine profile lacks labelled shard loops %q", missing)
}

// TestEngineRunsOneReaderPerShard: an engine with N shards runs N goroutines,
// its readers, one per shard; cohort tails and off-batch producers send
// through the readers' and their own sends, with no writer goroutine.
func TestEngineRunsOneReaderPerShard(t *testing.T) {
	for _, n := range []int{1, 4} {
		e := newTestEngine(t, Config{Shards: n, Fanout: []string{"127.0.0.1:9"}, Branch: "counting"})
		var seen map[string]int
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			seen = engineGoroutines(t)
			total, readers := 0, 0
			for k, c := range seen {
				total += c
				if strings.HasPrefix(k, `{"loop":"reader", "shard":`) && strings.Contains(k, "(*shard).readLoop+") {
					readers += c
				}
			}
			if total == n && readers == n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d shards: engine goroutines %v, want %d readers and nothing else", n, seen, n)
			}
		}
		e.Close()
	}
}

func TestEngineChainTranscodeStage(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "transcode=2"})
	c := dialEngine(t, e)

	payload := make([]byte, 320)
	sendPacket(t, c, 8, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: payload})
	_, p := readPacket(t, c, 2*time.Second)
	if len(p.Payload) != len(payload)/2 {
		t.Fatalf("transcoded payload = %d bytes, want %d", len(p.Payload), len(payload)/2)
	}
}

func TestEngineGarbageFrameDoesNotBrickSession(t *testing.T) {
	e := newTestEngine(t, Config{})
	c := dialEngine(t, e)

	// Establish the session, then hit it with garbage frames: a bad magic, a
	// truncated header, and a frame whose length field lies.
	sendPacket(t, c, 21, &packet.Packet{Kind: packet.KindData, Payload: []byte("pre")})
	readPacket(t, c, 2*time.Second)
	garbage := [][]byte{
		append(packet.AppendSessionID(nil, 21), []byte("XX-not-a-frame")...),
		packet.AppendSessionID(nil, 21),
		func() []byte {
			dgram, _ := packet.AppendDatagram(nil, 21, &packet.Packet{Kind: packet.KindData, Payload: []byte("abcd")})
			return dgram[:len(dgram)-2] // truncate the payload
		}(),
	}
	for _, g := range garbage {
		if _, err := c.Write(g); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Malformed < uint64(len(garbage)) {
		if time.Now().After(deadline) {
			t.Fatalf("malformed = %d, want %d", e.Stats().Malformed, len(garbage))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The session must still relay.
	sendPacket(t, c, 21, &packet.Packet{Kind: packet.KindData, Payload: []byte("post")})
	_, p := readPacket(t, c, 2*time.Second)
	if string(p.Payload) != "post" {
		t.Fatalf("payload after garbage = %q", p.Payload)
	}
	if n := e.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d, want 1", n)
	}
}

// failingStage is a "fail" kind whose frame form fails on every frame
// carrying the payload "fail" and passes the rest.
var failingStage = compose.Definition{
	Kind: "fail",
	Build: func(compose.Env, string) (filter.Filter, error) {
		return filter.NewFrame("fail", func(b *packet.Buf, emit func(*packet.Buf)) error {
			if string(b.B[packet.HeaderSize:]) == "fail" {
				b.Release()
				return errors.New("boom")
			}
			emit(b)
			return nil
		}, nil), nil
	},
}

func TestEngineEvictsSessionWhoseChainFails(t *testing.T) {
	// A stage failing on a frame kills the session's trunk — on the frame the
	// reader ran, or on one a timed stage released from its timer. Either way
	// the dead session must be evicted so the ID is not blackholed, and a
	// later datagram must get a fresh session.
	for _, chain := range []string{"fail,counting", "delay=1ms,fail"} {
		t.Run(chain, func(t *testing.T) {
			e, err := New(Config{ListenAddr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			withStage(t, e, failingStage, chain)
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			c := dialEngine(t, e)

			sendPacket(t, c, 33, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("fail")})
			deadline := time.Now().Add(2 * time.Second)
			for e.Stats().ChainErrors == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("dead session never evicted: %+v", e.Stats())
				}
				// A failure on the timer surfaces on the next datagram.
				sendPacket(t, c, 33, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("poke")})
				time.Sleep(5 * time.Millisecond)
			}
			if got := e.Stats().ChainErrors; got != 1 {
				t.Fatalf("ChainErrors = %d, want 1", got)
			}
			// Same ID works again on a fresh session: the dead one was evicted.
			for {
				sendPacket(t, c, 33, &packet.Packet{Seq: 2, Kind: packet.KindData})
				if id, p := readPacket(t, c, 2*time.Second); id == 33 && p.Seq == 2 {
					break
				}
			}
		})
	}
}

// TestEngineBadFrameDropsNotEvicts sends a payload that is not a DEFLATE
// stream into decompress — a protocol-valid datagram any sender can produce.
// The stage must drop and count it: Drops goes up, no chain error, and the
// session keeps relaying.
func TestEngineBadFrameDropsNotEvicts(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "decompress,counting"})
	c := dialEngine(t, e)
	const id = 34
	sendPacket(t, c, id, &packet.Packet{Seq: 1, Kind: packet.KindData}) // empty payloads pass decompress
	readPacket(t, c, 2*time.Second)
	sendPacket(t, c, id, &packet.Packet{Seq: 2, Kind: packet.KindData, Payload: []byte("not deflate")})
	sendPacket(t, c, id, &packet.Packet{Seq: 3, Kind: packet.KindData})
	if got, p := readPacket(t, c, 2*time.Second); got != id || p.Seq != 3 {
		t.Fatalf("after the bad frame: session %d seq %d, want %d/3", got, p.Seq, id)
	}
	st := e.Session(id).Stats()
	if st.Drops != 1 || st.Packets != 3 || e.Stats().ChainErrors != 0 || e.SessionCount() != 1 {
		t.Fatalf("session stats %+v, chain errors %d, sessions %d: want 1 drop, 3 packets, no error",
			st, e.Stats().ChainErrors, e.SessionCount())
	}
}

// TestEngineDuplicateFECShareDoesNotEvict replays one duplicated share
// mid-stream into a decoding session: a protocol-valid datagram any sender can
// produce. The decoder must drop and count it — the session survives with no
// chain error, and every other frame is delivered.
func TestEngineDuplicateFECShareDoesNotEvict(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "fec-decode"})
	c := dialEngine(t, e)
	const id = 33
	share := func(group uint32, index uint8) *packet.Packet {
		return &packet.Packet{
			Seq: uint64(group)*4 + uint64(index), Kind: packet.KindData,
			Group: group, Index: index, K: 4, N: 6,
			Payload: []byte{byte(group), index},
		}
	}
	expect := func(group uint32, index uint8) {
		t.Helper()
		got, p := readPacket(t, c, 2*time.Second)
		if got != id || p.Group != group || p.Index != index {
			t.Fatalf("delivered session %d group %d index %d, want %d/%d/%d", got, p.Group, p.Index, id, group, index)
		}
	}
	for i := uint8(0); i < 4; i++ {
		sendPacket(t, c, id, share(0, i))
		expect(0, i)
		if i == 1 {
			sendPacket(t, c, id, share(0, 1)) // the duplicate: no echo, no eviction
		}
	}
	// A share whose header disagrees with its group's code is dropped too.
	bad := share(0, 3)
	bad.K, bad.N, bad.Index = 2, 3, 2
	sendPacket(t, c, id, bad)
	for i := uint8(0); i < 4; i++ {
		sendPacket(t, c, id, share(1, i))
		expect(1, i)
	}
	st := e.Stats()
	if st.ChainErrors != 0 || e.SessionCount() != 1 || e.Session(id) == nil {
		t.Fatalf("session did not survive: chainErrors=%d sessions=%d", st.ChainErrors, e.SessionCount())
	}
	waitFor(t, "the last echo to be credited", func() bool { return e.Session(id).Stats().OutPackets == 8 })
	if ss := e.Session(id).Stats(); ss.Drops != 2 || ss.Packets != 10 {
		t.Fatalf("session stats = drops %d packets %d out %d, want 2/10/8", ss.Drops, ss.Packets, ss.OutPackets)
	}
}

func TestEngineEchoPeerIsPinnedToFirstSender(t *testing.T) {
	e := newTestEngine(t, Config{})
	owner := dialEngine(t, e)
	intruder := dialEngine(t, e)

	sendPacket(t, owner, 55, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("mine")})
	readPacket(t, owner, 2*time.Second)

	// A second socket sends on the same session ID: its datagram is relayed,
	// but the echo must still go to the original sender, not the intruder.
	sendPacket(t, intruder, 55, &packet.Packet{Seq: 2, Kind: packet.KindData, Payload: []byte("stolen?")})
	_, p := readPacket(t, owner, 2*time.Second)
	if string(p.Payload) != "stolen?" {
		t.Fatalf("owner received %q, want the relayed packet", p.Payload)
	}
	intruder.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := intruder.Read(make([]byte, packet.MaxDatagram)); err == nil {
		t.Fatal("intruder received the session's output")
	}
}

func TestEngineAllowRoamingFollowsSender(t *testing.T) {
	e := newTestEngine(t, Config{AllowRoaming: true})
	first := dialEngine(t, e)
	second := dialEngine(t, e)

	sendPacket(t, first, 56, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("a")})
	readPacket(t, first, 2*time.Second)

	sendPacket(t, second, 56, &packet.Packet{Seq: 2, Kind: packet.KindData, Payload: []byte("b")})
	_, p := readPacket(t, second, 2*time.Second)
	if string(p.Payload) != "b" {
		t.Fatalf("roamed client received %q", p.Payload)
	}
}

// logSink is a log destination tests can read while the engine writes to it.
type logSink struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logSink) count(sub string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Count(l.b.String(), sub)
}

// TestTuneConnReadsBackGrantedBuffers: the engine reads back the socket
// buffers the kernel granted, which Linux caps at net.core.rmem_max and
// wmem_max, and logs a shortfall once per engine, however many sockets fall
// short.
func TestTuneConnReadsBackGrantedBuffers(t *testing.T) {
	sysctl := func(name string) int {
		b, err := os.ReadFile("/proc/sys/net/core/" + name)
		if err != nil {
			t.Skipf("cannot read the kernel's buffer cap: %v", err)
		}
		n, err := strconv.Atoi(strings.TrimSpace(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	rmax, wmax := sysctl("rmem_max"), sysctl("wmem_max")
	logs := &logSink{}
	e := newTestEngine(t, Config{Logger: log.New(logs, "", 0)})
	rcv, snd, ok := grantedBuffers(e.closers[0].(*net.UDPConn))
	if !ok {
		t.Fatal("cannot read back the engine socket's buffer sizes")
	}
	if rcv != min(sockBufBytes, rmax) || snd != min(sockBufBytes, wmax) {
		t.Fatalf("granted %d receive and %d send bytes, want %d and %d", rcv, snd, min(sockBufBytes, rmax), min(sockBufBytes, wmax))
	}
	want := 0
	if rcv < sockBufBytes || snd < sockBufBytes {
		want = 1
	}
	if got := logs.count("socket buffers"); got != want {
		t.Fatalf("%d socket buffer warnings at start, want %d (rmem_max %d, wmem_max %d)", got, want, rmax, wmax)
	}
	// Asking for more than the caps allow falls short on every socket; the
	// engine still warns once.
	over := 2 * max(rmax, wmax)
	for range 2 {
		for _, c := range e.closers {
			e.tuneConn(c.(*net.UDPConn), over)
		}
	}
	if got := logs.count("socket buffers"); got != 1 {
		t.Fatalf("%d socket buffer warnings, want 1 per engine", got)
	}
}
