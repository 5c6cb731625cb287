package engine

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// recvPeer is the source address of the datagrams the tests below script.
var recvPeer = netip.MustParseAddrPort("10.9.0.3:4000")

// withStage registers def on a clone of e's registry and, unless trunk is
// empty, makes the chain spec trunk the trunk every new session starts from.
func withStage(t *testing.T, e *Engine, def compose.Definition, trunk string) {
	t.Helper()
	e.reg = e.reg.Clone()
	if err := e.reg.Register(def); err != nil {
		t.Fatal(err)
	}
	if trunk != "" {
		var err error
		if e.trunkPlan, err = compose.ParseWith(e.reg, trunk, compose.ModeChain); err != nil {
			t.Fatal(err)
		}
	}
}

// newProbeEngine starts a one-shard engine on a simulated conn (see
// newSimEngine) whose sessions run one stage of kind "probe", a frame
// function made of fn.
func newProbeEngine(t *testing.T, fn func(b *packet.Buf, emit func(*packet.Buf)) error) (*Engine, *simConn) {
	t.Helper()
	e, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	withStage(t, e, compose.Definition{
		Kind:  "probe",
		Build: func(compose.Env, string) (filter.Filter, error) { return filter.NewFrame("probe", fn, nil), nil },
	}, "probe")
	return e, startSim(t, e)[0]
}

// TestTimedReleaseLeavesInOneFlush holds 16 frames in a delay stage, on a
// trunk and on a fan-out member's cohort tail, with a clock the test steps so
// that they fall due together. The chain's timer releases all 16 at once, and
// they must leave as one batch: one flush, one send call, not one each.
func TestTimedReleaseLeavesInOneFlush(t *testing.T) {
	const frames = 16
	member := netip.MustParseAddrPort("10.9.4.1:5000")
	for _, tail := range []bool{false, true} {
		name := map[bool]string{false: "trunk", true: "cohort"}[tail]
		t.Run(name, func(t *testing.T) {
			var now atomic.Int64
			now.Store(time.Now().UnixNano())
			cfg, dst, trunk := Config{Shards: 1}, recvPeer, "stepdelay"
			if tail {
				cfg.Fanout, dst, trunk = []string{member.String()}, member, ""
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			withStage(t, e, compose.Definition{
				Kind: "stepdelay",
				Build: func(env compose.Env, _ string) (filter.Filter, error) {
					d := filter.NewDelay(env.StageName("stepdelay"), 20*time.Millisecond)
					d.SetClock(func() time.Time { return time.Unix(0, now.Load()) })
					return d, nil
				},
			}, trunk)
			sc := startSim(t, e)[0]
			const id = 1
			if tail {
				sc.in <- []simDgram{{data: mustDatagram(t, id, 0, []byte{0}), from: recvPeer}}
				waitFor(t, "the session's first frame at the member", func() bool { return sc.sentTotal() == 1 })
				if _, err := e.EditSession(id, member.String(), compose.Replace("stepdelay")); err != nil {
					t.Fatal(err)
				}
			}

			sent0, flushes0 := sc.sentTotal(), e.Stats().WriteFlushes
			calls0, _ := sc.counts()
			batch := make([]simDgram, frames)
			for i := range batch {
				batch[i] = simDgram{data: mustDatagram(t, id, uint64(1+i), []byte{byte(i)}), from: recvPeer}
			}
			datagrams := e.Stats().Datagrams
			sc.in <- batch
			waitFor(t, "the batch held", func() bool { return e.Stats().Datagrams == datagrams+frames })
			if n := sc.sentTotal() - sent0; n != 0 {
				t.Fatalf("%d frames left before they fell due", n)
			}
			now.Add(int64(20 * time.Millisecond))
			waitFor(t, "the release", func() bool { return sc.sentTotal()-sent0 == frames })
			want := frames
			if tail {
				want++ // the frame that opened the session
			}
			if got := len(sc.sentTo(dst)); got != want {
				t.Fatalf("%d frames at %v, want %d", got, dst, want)
			}
			flushes := e.Stats().WriteFlushes - flushes0
			calls, _ := sc.counts()
			calls -= calls0
			if flushes != 1 || calls != 1 {
				t.Fatalf("%d frames released together left in %d flushes and %d send calls, want 1 and 1", frames, flushes, calls)
			}
		})
	}
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
	sc.in <- []simDgram{
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
	sc.in <- []simDgram{{data: first, from: recvPeer}}
	const batches = 10
	for n := 1; n <= batches; n++ {
		batch := make([]simDgram, batchSize)
		for i := range batch {
			batch[i] = simDgram{data: mustDatagram(t, 1, uint64(n*batchSize+i), bytes.Repeat([]byte{byte(n)}, 200)), from: recvPeer}
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
	e, sc := newSimEngine(t, Config{})
	const perSlot = 64
	var want [][]byte
	batch := make([]simDgram, batchSize)
	for i := range batch {
		var slot []byte
		for j := 0; j < perSlot; j++ {
			d := mustDatagram(t, 1, uint64(len(want)), make([]byte, 100))
			want = append(want, d)
			slot = append(slot, d...)
		}
		batch[i] = simDgram{data: slot, from: recvPeer, seg: len(want[0])}
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

// stamped returns session 1's data datagram seq, its 100-byte payload
// stamped with seq.
func stamped(t *testing.T, seq uint64) []byte {
	return mustDatagram(t, 1, seq, binary.BigEndian.AppendUint64(make([]byte, 0, 100), seq)[:100])
}

// newStampedFanout starts a one-shard engine on a simulated conn that fans
// out to n members, 10.9.<subnet>.1 and up, sends session 1's first stamped
// frame and waits for it at every member.
func newStampedFanout(t *testing.T, n int, subnet byte) (*Engine, *simConn, []netip.AddrPort) {
	members := make([]netip.AddrPort, n)
	var fanout []string
	for i := range members {
		members[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, subnet, byte(i + 1)}), 5000)
		fanout = append(fanout, members[i].String())
	}
	e, sc := newSimEngine(t, Config{Fanout: fanout})
	sc.in <- []simDgram{{data: stamped(t, 0), from: recvPeer}}
	waitFor(t, "the session's first frame at every member", func() bool { return sc.sentTotal() == len(members) })
	return e, sc, members
}

// memberFrames counts the data and parity frames sent to member i at m, and
// fails unless its data frames carry stamps 0, 1, 2 and on, in order.
func memberFrames(t *testing.T, sc *simConn, i int, m netip.AddrPort) (data, par int) {
	t.Helper()
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
	return data, par
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
	e, sc, members := newStampedFanout(t, 4, 1)
	const id, perSlot = 1, 64
	for i, tail := range []string{"counting", "null", "fec-encode=6/4"} {
		if _, err := e.EditSession(id, members[i+1].String(), compose.Replace(tail)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Session(id).Stats(); st.Cohorts != 4 {
		t.Fatalf("%d cohorts, want 4", st.Cohorts)
	}

	batch := make([]simDgram, batchSize)
	seq := uint64(1)
	for i := range batch {
		var slot []byte
		for j := 0; j < perSlot; j++ {
			slot = append(slot, stamped(t, seq)...)
			seq++
		}
		batch[i] = simDgram{data: slot, from: recvPeer, seg: len(stamped(t, 0))}
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
		data, par := memberFrames(t, sc, i, m)
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
	e, sc, members := newStampedFanout(t, 8, 2)
	const id = 1
	for _, m := range members[4:] {
		if _, err := e.EditSession(id, m.String(), compose.Replace("fec-encode=8/4")); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Session(id).Stats(); st.Cohorts != 2 {
		t.Fatalf("%d cohorts, want 2", st.Cohorts)
	}

	before := e.Stats()
	_, entries0 := sc.counts()
	batch := make([]simDgram, batchSize)
	for i := range batch {
		batch[i] = simDgram{data: stamped(t, uint64(1+i)), from: recvPeer}
	}
	sc.in <- batch
	want := len(members) + 4*batchSize + 4*2*batchSize
	waitFor(t, "the batch at every member", func() bool { return sc.sentTotal() == want })
	st := e.Stats()
	if f, w := st.WriteFlushes-before.WriteFlushes, st.BatchedWrites-before.BatchedWrites; f != 1 || w != 3*batchSize {
		t.Fatalf("the read left in %d flushes of %d entries, want 1 of %d", f, w, 3*batchSize)
	}
	_, entries := sc.counts()
	entries -= entries0
	if entries != 12 {
		t.Fatalf("the flush took %d GSO entries, want 12: one run per member and kind", entries)
	}
	for i, m := range members {
		data, par := memberFrames(t, sc, i, m)
		wantPar := 0
		if i >= 4 {
			wantPar = batchSize
		}
		if data != 1+batchSize || par != wantPar {
			t.Fatalf("member %d: %d data and %d parity frames, want %d and %d", i, data, par, 1+batchSize, wantPar)
		}
	}
}
