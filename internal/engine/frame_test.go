package engine

import (
	"encoding/binary"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// TestFrameSessionFootprint pins what a live session costs on each executor.
// On a frame-native plan it is a plain struct: opening sessions adds no
// goroutines at all (the goroutine executor adds the two endpoints plus one
// per stage), and the bytes each one holds are reported for the record.
func TestFrameSessionFootprint(t *testing.T) {
	const sessions = 256
	peer := netip.MustParseAddrPort("10.9.0.1:4000")
	measure := func(chain string) (goroutines int, bytesPerSession uint64) {
		e := newTestEngine(t, Config{Chain: chain})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g0 := runtime.NumGoroutine()
		for id := uint32(1); id <= sessions; id++ {
			if _, err := e.openSession(id, peer); err != nil {
				t.Fatal(err)
			}
		}
		goroutines = runtime.NumGoroutine() - g0
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > before.HeapAlloc {
			bytesPerSession = (after.HeapAlloc - before.HeapAlloc) / sessions
		}
		if got := e.SessionCount(); got != sessions {
			t.Fatalf("%q: %d sessions registered, want %d", chain, got, sessions)
		}
		return goroutines, bytesPerSession
	}

	g, b := measure("counting,checksum,null,null")
	t.Logf("frame-native plan, 4 stages: %d goroutines and ~%d heap bytes per live session", g/sessions, b)
	if g != 0 {
		t.Fatalf("%d frame-native sessions added %d goroutines, want 0", sessions, g)
	}
	g, b = measure("counting,delay=1ms")
	t.Logf("goroutine plan, 2 stages: %d goroutines and ~%d heap bytes per live session", g/sessions, b)
	if want := sessions * (2 + 2); g != want {
		t.Fatalf("%d goroutine-plan sessions added %d goroutines, want %d (2 endpoints + 1 per stage)", sessions, g, want)
	}
}

// TestFrameSessionOwnsNoChain checks the structural side of the footprint: a
// frame-native session has no filter.Chain, no UDP endpoints and no inbound
// queue, and a plan with a timed stage keeps all three.
func TestFrameSessionOwnsNoChain(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "counting"})
	peer := netip.MustParseAddrPort("10.9.0.1:4000")
	s, err := e.openSession(1, peer)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.state()
	if cs.frames == nil || cs.chain != nil || cs.source != nil || cs.sink != nil || cs.in != nil {
		t.Fatalf("frame-native session state = %+v", cs)
	}
	if _, err := e.RecomposeSession(1, "", "counting,delay=1ms"); err != nil {
		t.Fatal(err)
	}
	cs = s.state()
	if cs.frames != nil || cs.chain == nil || cs.source == nil || cs.sink == nil || cs.in == nil {
		t.Fatalf("goroutine session state = %+v", cs)
	}
}

// TestTwoReadersOneSession has two shard readers deliver to one session at
// once, as they do on a shared socket where any reader may receive any
// session's datagram. The session's lock must make that safe: every datagram
// comes out exactly once, and each reader's datagrams in the order it read
// them. Run under -race.
func TestTwoReadersOneSession(t *testing.T) {
	e, err := New(Config{ListenAddr: "127.0.0.1:0", Shards: 2, Chain: "counting,checksum"})
	if err != nil {
		t.Fatal(err)
	}
	conns := []*scriptedConn{newScriptedConn(), newScriptedConn()}
	for i := range e.shards {
		e.shards[i].bconn = conns[i]
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, sc := range conns {
			close(sc.in)
		}
		e.Close()
	})

	const id, perReader, batch = 9, 2048, 16
	peer := netip.MustParseAddrPort("10.9.0.2:4000")
	// The session's output all leaves through its owning shard's writer.
	out := conns[e.table.shardIndex(id)]
	// Reader r's datagrams carry seq r<<32 | i. The feeders keep the combined
	// backlog under the writer's queue depth — unpaced, two inline readers
	// outrun one writer and it sheds load, as it should.
	var fed atomic.Int64
	var wg sync.WaitGroup
	for r, sc := range conns {
		dgrams := make([]scriptedDgram, perReader)
		for i := range dgrams {
			dgrams[i] = scriptedDgram{data: mustDatagram(t, id, uint64(r)<<32|uint64(i), []byte("x")), from: peer}
		}
		wg.Add(1)
		go func(sc *scriptedConn) {
			defer wg.Done()
			for i := 0; i < perReader; i += batch {
				for fed.Load()-int64(out.sentTotal()) > writeQueueDepth/2 {
					time.Sleep(50 * time.Microsecond)
				}
				fed.Add(batch)
				sc.in <- dgrams[i : i+batch]
			}
		}(sc)
	}
	wg.Wait()
	waitFor(t, "every echo", func() bool { return out.sentTotal() == 2*perReader })
	next := [2]uint64{}
	for _, d := range out.sentTo(peer) {
		seq := binary.BigEndian.Uint64(d[packet.SessionIDSize+4:])
		r, i := seq>>32, seq&0xffffffff
		if i != next[r] {
			t.Fatalf("reader %d: datagram %d came out where %d was due (lost, duplicated or reordered)", r, i, next[r])
		}
		next[r]++
	}
	s := e.Session(id)
	counting := s.Live().Instance("counting").(*filter.CountingFilter)
	waitFor(t, "the last echo to be credited", func() bool { return s.Stats().OutPackets == 2*perReader })
	if st := s.Stats(); counting.Chunks() != 2*perReader || st.Packets != 2*perReader || st.Drops != 0 {
		t.Fatalf("counting saw %d frames; session stats %+v", counting.Chunks(), st)
	}
}

// TestEngineRecomposeAcrossExecutorBoundary recomposes a session under traffic
// from a frame-native plan to one with a timed stage and back: counting →
// counting,delay=1ms → counting. Each crossing rebuilds the trunk on the other
// executor; none may lose a datagram, and the counting stage — present in
// every plan — must be the same instance throughout, counters intact. Run
// under -race.
func TestEngineRecomposeAcrossExecutorBoundary(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "counting"})
	const id, total = 5, 1200
	c := openEchoSession(t, e, id)
	s := e.Session(id)
	counting := s.Live().Instance("counting")

	var received atomic.Uint64
	seen := make([]bool, total+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, packet.MaxDatagram)
		for received.Load() < total {
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			seq := binary.BigEndian.Uint64(buf[packet.SessionIDSize+4 : n])
			if seq == 0 || seq > total || seen[seq] {
				t.Errorf("echo seq %d: out of range or duplicated", seq)
				return
			}
			seen[seq] = true
			received.Add(1)
		}
	}()

	plans := []string{"counting,delay=1ms", "counting", "delay=1ms,counting", "counting"}
	for seq := uint64(1); seq <= total; seq++ {
		sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte("boundary")})
		if seq%(total/uint64(len(plans)+1)) == 0 && len(plans) > 0 {
			plan := plans[0]
			plans = plans[1:]
			if got, err := e.RecomposeSession(id, "", plan); err != nil || got != plan {
				t.Fatalf("recompose to %q = %q, %v", plan, got, err)
			}
			if inline := s.state().frames != nil; inline != (plan == "counting") {
				t.Fatalf("plan %q left the session on the wrong executor (inline=%v)", plan, inline)
			}
			if s.Live().Instance("counting") != counting {
				t.Fatalf("recompose to %q replaced the counting instance", plan)
			}
		}
		if seq%8 == 0 {
			time.Sleep(100 * time.Microsecond) // pace: stay under the socket buffers
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("echo reader never finished")
	}
	if got := received.Load(); got != total {
		t.Fatalf("received %d of %d echoes across the executor boundary", got, total)
	}
	waitFor(t, "the last echo to be credited", func() bool { return s.Stats().OutPackets == total+1 })
	st := s.Stats()
	if st.Drops != 0 || st.Packets != total+1 {
		t.Fatalf("session stats across the boundary: %+v", st)
	}
	if es := e.Stats(); es.ChainErrors != 0 || es.Parks != 0 || es.Unparks != 0 {
		t.Fatalf("engine stats across the boundary: %+v", es)
	}
	// One frame size throughout, so the carried stage's byte counter is exact
	// on both executors (its chunk counter means reads in stream mode).
	frame := uint64(packet.HeaderSize + len("boundary"))
	open := uint64(packet.HeaderSize + len("open"))
	if got := counting.(*filter.CountingFilter).Bytes(); got != total*frame+open {
		t.Fatalf("counting stage counted %d bytes, want %d: state not carried", got, total*frame+open)
	}
	if in, out := counting.(*filter.CountingFilter).IOBytes(); in != total*frame+open || out != in {
		t.Fatalf("counting stage IO counters = %d/%d, want %d", in, out, total*frame+open)
	}
}
