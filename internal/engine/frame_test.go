package engine

import (
	"encoding/binary"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
	"rapidware/internal/race"
)

// heapBytes returns the live heap after a full collection; the second one
// empties the pools' victim caches, so pooled buffers do not count.
func heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// awaitReadersReading waits until every shard reader in the process is inside
// a read. A reader takes its receive slots (32 x 64 KiB) right after Start,
// on its own goroutine, before its first read, and where they are not mapped
// off the heap (receiveSlots) slots landing between two heap readings would
// count as per-session heap.
func awaitReadersReading(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		leasing := false
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			leasing = leasing || strings.Contains(g, ").readLoop(") && !strings.Contains(g, ".ReadBatch(")
		}
		if !leasing {
			return
		}
	}
	t.Fatal("the shard readers never reached a read")
}

// perUnit is the heap growth from before to after, spread over n.
func perUnit(before, after uint64, n int) uint64 {
	if after < before {
		return 0
	}
	return (after - before) / uint64(n)
}

// TestFrameSessionFootprint pins what a session costs. Live, it is a plain
// struct: opening sessions adds no goroutines at all — not for a timed plan,
// whose held frames are released by a runtime timer armed only while it
// holds some, and not for an adaptive one, unicast or fan-out, whose
// receivers' loops run on the goroutine that reads their reports. Its heap
// bytes, live and parked, stay within per-chain bounds; parking keeps only
// the session struct and its plan, whatever stages the chain had. And a
// session's heap does not grow with its history: parking and unparking it,
// or recomposing its FEC decoder away and back, leaves nothing behind. The
// bounds sit about 1.5x over what a 64-bit host reads. Heap counts are not
// meaningful under -race.
func TestFrameSessionFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("heap footprints are not meaningful under -race")
	}
	const sessions = 1024
	peer := netip.MustParseAddrPort("10.9.0.1:4000")
	for _, tc := range []struct {
		name         string
		cfg          Config
		live, parked uint64 // bounds, heap bytes per session
	}{
		{"relay", Config{}, 950, 370},
		{"counting,checksum,null,null", Config{Chain: "counting,checksum,null,null"}, 2800, 560},
		{"counting,delay=1ms", Config{Chain: "counting,delay=1ms"}, 2050, 460},
		{"fec-encode=6/4", Config{Chain: "fec-encode=6/4"}, 2150, 420},
		{"fec-decode,fec-encode=6/4", Config{Chain: "fec-decode,fec-encode=6/4"}, 17300, 460},
		// A frame history allocates its slots with its first data frame, and
		// the DEFLATE stages borrow their codec state from process-wide pools
		// (a flate.Writer alone is ~600 KB).
		{"arq", Config{Chain: "arq"}, 1500, 420},
		{"replay=64", Config{Chain: "replay=64"}, 1500, 420},
		{"compress", Config{Chain: "compress"}, 1450, 420},
		{"adaptive unicast", Config{Adapt: true}, 1250, 560},
		{"adaptive fan-out to two receivers", Config{Adapt: true, Fanout: []string{"127.0.0.1:9", "127.0.0.1:10"}}, 3100, 510},
	} {
		e := newTestEngine(t, tc.cfg)
		awaitReadersReading(t)
		before := heapBytes()
		g0 := runtime.NumGoroutine()
		for id := uint32(1); id <= sessions; id++ {
			if _, err := e.openSession(id, peer); err != nil {
				t.Fatal(err)
			}
		}
		g := runtime.NumGoroutine() - g0
		live := perUnit(before, heapBytes(), sessions)
		if got := e.SessionCount(); got != sessions {
			t.Fatalf("%s: %d sessions registered, want %d", tc.name, got, sessions)
		}
		for id := uint32(1); id <= sessions; id++ {
			if !e.Session(id).park() {
				t.Fatalf("%s: session %d did not park", tc.name, id)
			}
		}
		parked := perUnit(before, heapBytes(), sessions)
		t.Logf("%s: %d goroutines, ~%d heap bytes per live session and ~%d per parked one", tc.name, g/sessions, live, parked)
		if g != 0 {
			t.Fatalf("%d %s sessions added %d goroutines, want 0", sessions, tc.name, g)
		}
		if live > tc.live || parked > tc.parked {
			t.Fatalf("%s: %d heap bytes per live session and %d per parked one, bounds %d and %d",
				tc.name, live, parked, tc.live, tc.parked)
		}
		e.Close()
	}

	// Cycles on one session whose chain decodes and re-encodes FEC.
	const cycles, perCycle = 512, 256
	e := newTestEngine(t, Config{Chain: "fec-decode,fec-encode=6/4"})
	s, err := e.openSession(1, peer)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cycle func() error
	}{
		{"park/unpark", func() error {
			s.park()
			_, err := s.unpark()
			return err
		}},
		{"recompose", func() error {
			if _, err := e.EditSession(1, "", compose.Replace("counting,fec-encode=6/4")); err != nil {
				return err
			}
			_, err := e.EditSession(1, "", compose.Replace("fec-decode,fec-encode=6/4"))
			return err
		}},
	} {
		if err := tc.cycle(); err != nil { // warm up
			t.Fatal(err)
		}
		before := heapBytes()
		for i := 0; i < cycles; i++ {
			if err := tc.cycle(); err != nil {
				t.Fatal(err)
			}
		}
		grown := perUnit(before, heapBytes(), cycles)
		t.Logf("%s: ~%d heap bytes per cycle over %d cycles", tc.name, grown, cycles)
		if grown > perCycle {
			t.Fatalf("%s: the session's heap grew %d bytes per cycle over %d cycles, bound %d", tc.name, grown, cycles, perCycle)
		}
	}
}

// TestFrameSessionOwnsNoChain checks the structural side of the footprint:
// every session's trunk is a FrameChain, and a recompose that adds or removes
// a timed stage splices that same chain rather than replacing it.
func TestFrameSessionOwnsNoChain(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "counting"})
	peer := netip.MustParseAddrPort("10.9.0.1:4000")
	s, err := e.openSession(1, peer)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.state()
	for _, plan := range []string{"counting,delay=1ms", "jitter=5,counting,ratelimit=1000", "counting"} {
		if _, err := e.EditSession(1, "", compose.Replace(plan)); err != nil {
			t.Fatal(err)
		}
		if s.state() != cs || s.state().live.String() != plan {
			t.Fatalf("recompose to %q rebuilt the session state", plan)
		}
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
	// The session's output all leaves through its owning shard's queue.
	out := conns[e.table.shardIndex(id)]
	// Reader r's datagrams carry seq r<<32 | i. The feeders keep the combined
	// backlog under the shard's queue depth — unpaced, two inline readers
	// outrun one queue and it sheds load, as it should.
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
				for fed.Load()-int64(out.sentTotal()) > writeqSize/2 {
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
// into and out of a timed stage: counting → counting,delay=1ms → counting →
// delay=1ms,counting → counting. This used to cross between two executors;
// now every plan runs inline and the boundary is frames held by the delay
// stage when it is spliced out, which must be flushed, not lost. The counting
// stage — present in every plan — must be the same instance throughout,
// counters intact. Run under -race.
func TestEngineRecomposeAcrossExecutorBoundary(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "counting"})
	const id, total = 5, 1200
	c := openEchoSession(t, e, id)
	c.SetReadBuffer(4 << 20) // the delay stage releases echoes in bursts
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
			if got, err := e.EditSession(id, "", compose.Replace(plan)); err != nil || got != plan {
				t.Fatalf("recompose to %q = %q, %v", plan, got, err)
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
		t.Fatalf("received %d of %d echoes through the timed stage: session %+v engine %+v", got, total, s.Stats(), e.Stats())
	}
	waitFor(t, "the last echo to be credited", func() bool { return s.Stats().OutPackets == total+1 })
	st := s.Stats()
	if st.Drops != 0 || st.Packets != total+1 {
		t.Fatalf("session stats through the timed stage: %+v", st)
	}
	if es := e.Stats(); es.ChainErrors != 0 || es.Parks != 0 || es.Unparks != 0 {
		t.Fatalf("engine stats through the timed stage: %+v", es)
	}
	frame := uint64(packet.HeaderSize + len("boundary"))
	open := uint64(packet.HeaderSize + len("open"))
	if got := counting.(*filter.CountingFilter).Bytes(); got != total*frame+open {
		t.Fatalf("counting stage counted %d bytes, want %d: state not carried", got, total*frame+open)
	}
	if in, out := counting.(*filter.CountingFilter).IOBytes(); in != total*frame+open || out != in {
		t.Fatalf("counting stage IO counters = %d/%d, want %d", in, out, total*frame+open)
	}
}
