package engine

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"sync"
	"testing"

	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// recvPeer is the source address of the datagrams the tests below script.
var recvPeer = netip.MustParseAddrPort("10.9.0.3:4000")

// newProbeEngine starts a one-shard scripted engine (see newScriptedEngine)
// whose sessions run one stage of kind "probe", a frame function made of fn.
func newProbeEngine(t *testing.T, fn func(b *packet.Buf, emit func(*packet.Buf)) error) (*Engine, *scriptedConn) {
	t.Helper()
	e, err := New(Config{ListenAddr: "127.0.0.1:0", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := e.reg.Clone()
	if err := reg.Register(compose.Definition{
		Kind:  "probe",
		Build: func(compose.Env, string) (filter.Filter, error) { return filter.NewFrame("probe", fn, nil), nil },
	}); err != nil {
		t.Fatal(err)
	}
	e.reg = reg
	if e.trunkPlan, err = compose.ParseWith(reg, "probe", compose.ModeChain); err != nil {
		t.Fatal(err)
	}
	sc := newScriptedConn()
	e.shards[0].bconn = sc
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(sc.in)
		e.Close()
	})
	return e, sc
}

// TestReceivedDatagramRightSized pins what a received datagram costs: the
// reader copies it out of its 64 KiB receive slot into the pooled buffer
// class that fits it, so a stage sees a 64-byte payload in a 512-byte buffer
// and a 1,200-byte one in a 2,048-byte buffer.
func TestReceivedDatagramRightSized(t *testing.T) {
	var (
		mu   sync.Mutex
		caps []int
	)
	_, sc := newProbeEngine(t, func(b *packet.Buf, emit func(*packet.Buf)) error {
		mu.Lock()
		caps = append(caps, b.Cap())
		mu.Unlock()
		emit(b)
		return nil
	})
	sc.in <- []scriptedDgram{
		{data: mustDatagram(t, 1, 0, make([]byte, 64)), from: recvPeer},
		{data: mustDatagram(t, 1, 1, make([]byte, 1200)), from: recvPeer},
	}
	waitFor(t, "both echoes", func() bool { return sc.sentTotal() == 2 })
	mu.Lock()
	defer mu.Unlock()
	if len(caps) != 2 || caps[0] != 512 || caps[1] != 2048 {
		t.Fatalf("stage saw buffers of capacity %v, want [512 2048]", caps)
	}
}

// TestHeldFrameOutlivesReceiveSlots has a stage hold the first frame it sees
// while the reader reads ten more full batches into the same receive slots.
// The held frame's bytes must not change: no part of a slot ever leaves the
// reader.
func TestHeldFrameOutlivesReceiveSlots(t *testing.T) {
	var held *packet.Buf
	_, sc := newProbeEngine(t, func(b *packet.Buf, emit func(*packet.Buf)) error {
		if held == nil {
			held = b
			return nil
		}
		emit(b)
		return nil
	})
	first := mustDatagram(t, 1, 0, bytes.Repeat([]byte{0xa5}, 200))
	sc.in <- []scriptedDgram{{data: first, from: recvPeer}}
	const batches = 10
	for n := 1; n <= batches; n++ {
		batch := make([]scriptedDgram, batchSize)
		for i := range batch {
			batch[i] = scriptedDgram{data: mustDatagram(t, 1, uint64(n*batchSize+i), bytes.Repeat([]byte{byte(n)}, 200)), from: recvPeer}
		}
		sc.in <- batch
	}
	waitFor(t, "every echo but the held frame's", func() bool { return sc.sentTotal() == batches*batchSize })
	// The reader wrote held before the echoes it waited for.
	if !bytes.Equal(held.B, first[packet.SessionIDSize:]) {
		t.Fatal("the held frame's bytes changed while the reader read on")
	}
	held.Release()
}

// TestReaderSendsFullGROBatch serves the reader one batch of batchSize GRO
// slots of 64 datagrams each, 2,048 datagrams in all, twice what the shard's
// queue holds. The queue is sent whenever it reaches sendHighWater entries,
// so every one is counted once, echoed in order, and none is dropped.
func TestReaderSendsFullGROBatch(t *testing.T) {
	e, sc := newScriptedEngine(t, Config{})
	const perSlot = 64
	var want [][]byte
	batch := make([]scriptedDgram, batchSize)
	for i := range batch {
		var slot []byte
		for j := 0; j < perSlot; j++ {
			d := mustDatagram(t, 1, uint64(len(want)), make([]byte, 100))
			want = append(want, d)
			slot = append(slot, d...)
		}
		batch[i] = scriptedDgram{data: slot, from: recvPeer, seg: len(want[0])}
	}
	sc.in <- batch
	waitFor(t, "every datagram echoed or dropped", func() bool {
		st := e.Stats()
		return st.Datagrams == uint64(len(want)) && sc.sentTotal()+int(st.WriteDrops) == len(want)
	})
	if st := e.Stats(); st.WriteDrops != 0 || st.Malformed != 0 {
		t.Fatalf("WriteDrops = %d, Malformed = %d, want 0 and 0", st.WriteDrops, st.Malformed)
	}
	got := sc.sentTo(recvPeer)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("echo %d is not datagram %d", i, i)
		}
	}
}

// TestReaderSendsFullGROBatchFanout is TestReaderSendsFullGROBatch on a
// fan-out session whose four members are in four cohorts: the bypass lane,
// two one-stage tails and an FEC (6,4) tail. Each datagram queues four or
// five entries, so the batch's 2,048 datagrams queue about 9,000, and 256 of
// them already overflow the queue: only a send triggered by queued entries,
// not by datagrams read, gets them all out. Every member gets every data
// frame once and in order, the FEC member its parity too, and nothing is
// dropped.
func TestReaderSendsFullGROBatchFanout(t *testing.T) {
	members := make([]netip.AddrPort, 4)
	var fanout []string
	for i := range members {
		members[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, 1, byte(i + 1)}), 5000)
		fanout = append(fanout, members[i].String())
	}
	e, sc := newScriptedEngine(t, Config{Fanout: fanout})
	const id, perSlot = 1, 64
	stamped := func(seq uint64) []byte {
		return mustDatagram(t, id, seq, binary.BigEndian.AppendUint64(make([]byte, 0, 100), seq)[:100])
	}
	sc.in <- []scriptedDgram{{data: stamped(0), from: recvPeer}}
	waitFor(t, "the session's first frame at every member", func() bool { return sc.sentTotal() == len(members) })
	for i, tail := range []string{"counting", "null", "fec-encode=6/4"} {
		if _, err := e.EditSession(id, members[i+1].String(), compose.Replace(tail)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Session(id).Stats(); st.Cohorts != 4 {
		t.Fatalf("%d cohorts, want 4", st.Cohorts)
	}

	batch := make([]scriptedDgram, batchSize)
	seq := uint64(1)
	for i := range batch {
		var slot []byte
		for j := 0; j < perSlot; j++ {
			slot = append(slot, stamped(seq)...)
			seq++
		}
		batch[i] = scriptedDgram{data: slot, from: recvPeer, seg: len(stamped(0))}
	}
	sc.in <- batch
	frames := int(seq)             // data frames per member, the first one included
	parity := (frames - 1) / 4 * 2 // the FEC member's parity for the batch's whole groups
	want := len(members)*frames + parity
	waitFor(t, "every datagram sent or dropped", func() bool {
		st := e.Stats()
		return st.Datagrams == uint64(frames) && sc.sentTotal()+int(st.WriteDrops) >= want
	})
	if st := e.Stats(); st.WriteDrops != 0 || st.Malformed != 0 {
		t.Fatalf("WriteDrops = %d, Malformed = %d, want 0 and 0", st.WriteDrops, st.Malformed)
	}
	for i, m := range members {
		var data, par int
		for _, d := range sc.sentTo(m) {
			p, _, err := packet.Unmarshal(d[packet.SessionIDSize:])
			if err != nil {
				t.Fatal(err)
			}
			if p.Kind == packet.KindParity {
				par++
				continue
			}
			if got := binary.BigEndian.Uint64(p.Payload); got != uint64(data) {
				t.Fatalf("member %d: data frame %d carries stamp %d", i, data, got)
			}
			data++
		}
		if wantPar := map[bool]int{true: parity}[i == 3]; data != frames || par != wantPar {
			t.Fatalf("member %d: %d data and %d parity frames, want %d and %d", i, data, par, frames, wantPar)
		}
	}
}

// TestFanoutReadLeavesInOneFlush reads one batch of batchSize data frames on
// a fan-out session of 8 members: 4 on the bypass lane and 4 in one FEC (8,4)
// cohort, the shape of the fanout-mixed benchmark. The batch queues 96
// entries — a bypass frame, a cohort data frame and, every 4 frames, 4
// parity frames — and gives each cohort member 64 datagrams, each bypass
// member 32, so it leaves in one flush: one send of 12 GSO entries, a data
// run to every member and a parity run to each cohort member. Every member
// gets its data frames in order, and each cohort member its parity.
func TestFanoutReadLeavesInOneFlush(t *testing.T) {
	members := make([]netip.AddrPort, 8)
	var fanout []string
	for i := range members {
		members[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, 2, byte(i + 1)}), 5000)
		fanout = append(fanout, members[i].String())
	}
	e, sc := newScriptedEngine(t, Config{Fanout: fanout})
	const id = 1
	stamped := func(seq uint64) []byte {
		return mustDatagram(t, id, seq, binary.BigEndian.AppendUint64(make([]byte, 0, 100), seq)[:100])
	}
	sc.in <- []scriptedDgram{{data: stamped(0), from: recvPeer}}
	waitFor(t, "the session's first frame at every member", func() bool { return sc.sentTotal() == len(members) })
	for _, m := range members[4:] {
		if _, err := e.EditSession(id, m.String(), compose.Replace("fec-encode=8/4")); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Session(id).Stats(); st.Cohorts != 2 {
		t.Fatalf("%d cohorts, want 2", st.Cohorts)
	}

	before := e.Stats()
	sc.mu.Lock()
	entries0 := sc.entries
	sc.mu.Unlock()
	batch := make([]scriptedDgram, batchSize)
	for i := range batch {
		batch[i] = scriptedDgram{data: stamped(uint64(1 + i)), from: recvPeer}
	}
	sc.in <- batch
	want := len(members) + 4*batchSize + 4*2*batchSize
	waitFor(t, "the batch at every member", func() bool { return sc.sentTotal() == want })
	st := e.Stats()
	if f, w := st.WriteFlushes-before.WriteFlushes, st.BatchedWrites-before.BatchedWrites; f != 1 || w != 3*batchSize {
		t.Fatalf("the read left in %d flushes of %d entries, want 1 of %d", f, w, 3*batchSize)
	}
	sc.mu.Lock()
	entries := sc.entries - entries0
	sc.mu.Unlock()
	if entries != 12 {
		t.Fatalf("the flush took %d GSO entries, want 12: one run per member and kind", entries)
	}
	for i, m := range members {
		var data, par int
		for _, d := range sc.sentTo(m) {
			p, _, err := packet.Unmarshal(d[packet.SessionIDSize:])
			if err != nil {
				t.Fatal(err)
			}
			if p.Kind == packet.KindParity {
				par++
				continue
			}
			if got := binary.BigEndian.Uint64(p.Payload); got != uint64(data) {
				t.Fatalf("member %d: data frame %d carries stamp %d", i, data, got)
			}
			data++
		}
		wantPar := 0
		if i >= 4 {
			wantPar = batchSize
		}
		if data != 1+batchSize || par != wantPar {
			t.Fatalf("member %d: %d data and %d parity frames, want %d and %d", i, data, par, 1+batchSize, wantPar)
		}
	}
}
