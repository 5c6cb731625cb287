package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/fec"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
	"rapidware/internal/race"
)

// prefixConn accepts a random non-empty prefix of every WriteBatch, so a
// flush's expansion reaches the wire over several calls, and records what it
// accepted in order. With flushes set it also records, per datagram, the
// flush it left in: the count flushes read when WriteBatch was called.
type prefixConn struct {
	rng     *rand.Rand
	sent    []ioMsg
	flushes *atomic.Uint64
	flushOf []uint64
}

func (c *prefixConn) ReadBatch([]ioMsg) (int, error) { return 0, net.ErrClosed }
func (c *prefixConn) WriteBatch(ms []ioMsg) (int, error) {
	n := 1 + c.rng.Intn(len(ms))
	c.sent = append(c.sent, ms[:n]...)
	if c.flushes != nil {
		for range n {
			c.flushOf = append(c.flushOf, c.flushes.Load())
		}
	}
	return n, nil
}

// flushCut models where sendQueue cuts a queue into flushes: a new flush
// starts at the entry that would give a destination a (flushSize+1)-th
// datagram, or once a flush holds flushEntries entries. dsts lists each
// entry's destinations; the result is the number of flushes.
func flushCut(dsts [][]netip.AddrPort) int {
	flushes, entries := 0, 0
	var per map[netip.AddrPort]int
	for _, ds := range dsts {
		cut := flushes == 0 || entries == flushEntries
		for _, d := range ds {
			cut = cut || per[d] == flushSize
		}
		if cut {
			flushes, entries, per = flushes+1, 0, map[netip.AddrPort]int{}
		}
		for _, d := range ds {
			per[d]++
		}
		entries++
	}
	return flushes
}

// flushFrame is a cohort or unicast datagram of the random batches, size
// bytes long: a session-ID-stamped frame of the given kind whose sequence
// number is its queue position.
func flushFrame(tb testing.TB, id uint32, kind packet.Kind, pos, size int) *packet.Buf {
	b := packet.GetBuf(size)
	clear(b.B)
	packet.PutSessionID(b.B, id)
	p := &packet.Packet{Kind: kind, Seq: uint64(pos)}
	if err := packet.PutFrameHeader(b.B[packet.SessionIDSize:], p, size-packet.SessionIDSize-packet.HeaderSize); err != nil {
		tb.Fatal(err)
	}
	return b
}

// isParity reports whether a session-ID-stamped frame is an FEC parity frame.
func isParity(dgram []byte) bool {
	return packet.FrameKind(dgram[packet.SessionIDSize:]) == packet.KindParity
}

// TestFlushKeepsPerKindOrderOnRandomBatches drives random drained queues —
// unicast entries between the frames of several cohort views of two
// sessions, data and parity of varying sizes, views with no, one and several
// members, unicast entries addressed to those members — through sendQueue
// onto a conn that takes a random prefix of each call, and checks flush's
// contract: every (destination, frame) pair is sent exactly once; per
// destination, data frames keep queue order and parity frames keep queue
// order, whichever session, view or unicast entry they came from; no
// destination gets more than flushSize datagrams from one flush; the queue
// is cut into as many flushes as flushCut says; and the coalesced, drop,
// write and sent-datagram counters are exact. Odd seeds spread the queue
// over 8 destinations, so flushes end at a destination's flushSize-th
// datagram; even seeds spread up to writeqSize entries over 200, so most
// end at flushEntries entries.
func TestFlushKeepsPerKindOrderOnRandomBatches(t *testing.T) {
	sh := &shard{} // one shard throughout: its flush scratch is reused
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wide := seed%2 == 0
		dsts := make([]netip.AddrPort, 8)
		if wide {
			dsts = make([]netip.AddrPort, 200)
		}
		for i := range dsts {
			dsts[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 5, byte(i / 250), byte(i%250 + 1)}), 9000)
		}
		sessions := []*Session{{id: 1}, {id: 2}}
		// Each session's views have disjoint members, as a session's cohorts
		// do; the two sessions' views share members, and unicast entries of
		// both sessions go to the same destinations.
		type viewInfo struct {
			s    *Session
			view *[]target
		}
		var views []viewInfo
		for _, s := range sessions {
			perm := rng.Perm(len(dsts))
			for v := 0; v < 3; v++ {
				members := perm[:rng.Intn(min(4, len(perm))+1)]
				perm = perm[len(members):]
				ts := []target{}
				for _, d := range members {
					ts = append(ts, target{dst: dsts[d], rx: &metrics.ReceiverCounters{}})
				}
				views = append(views, viewInfo{s, &ts})
			}
		}
		size := writeqSize
		switch {
		case wide:
			size = 1 + rng.Intn(writeqSize)
		case seed > 1:
			size = 1 + rng.Intn(300)
		}
		sh.counters = shardCounters{}
		conn := &prefixConn{rng: rng, flushes: &sh.counters.flushes}
		sh.bconn = conn
		queue := make([]outbound, size)
		for pos := range queue {
			kind, frameSize := packet.KindData, 100
			if rng.Intn(3) == 0 {
				kind, frameSize = packet.KindParity, 102
			}
			if rng.Intn(5) == 0 {
				frameSize = 40 + rng.Intn(200)
			}
			if rng.Intn(4) == 0 {
				s := sessions[rng.Intn(len(sessions))]
				queue[pos] = outbound{s: s, b: flushFrame(t, s.id, kind, pos, frameSize),
					dst: dsts[rng.Intn(len(dsts))]}
				continue
			}
			v := views[rng.Intn(len(views))]
			queue[pos] = outbound{s: v.s, b: flushFrame(t, v.s.id, kind, pos, frameSize), view: v.view}
		}
		parity := make([]bool, size)
		for pos, o := range queue {
			parity[pos] = isParity(o.b.B)
			o.b.Retain(1) // keeps what conn recorded readable after the flush
			if !sh.push(o) {
				t.Fatalf("seed %d: queue of %d refused an entry", seed, size)
			}
		}
		sh.sendQueue()
		for _, o := range queue {
			if o.b.Refs() != 1 {
				t.Fatalf("seed %d: a flushed frame holds %d references, want the test's 1", seed, o.b.Refs())
			}
			defer o.b.Release()
		}

		// What the queue promises: the frames each destination must receive
		// per kind, in queue order, and the exact counters.
		type key struct {
			dst   netip.AddrPort
			class string
		}
		classOf := func(pos int) string {
			if parity[pos] {
				return "parity"
			}
			return "data"
		}
		want := map[key][]int{}
		var coalesced uint64
		drops := map[*Session]uint64{}
		for pos, o := range queue {
			if o.view == nil {
				k := key{o.dst, classOf(pos)}
				want[k] = append(want[k], pos)
				continue
			}
			for _, tg := range *o.view {
				k := key{tg.dst, classOf(pos)}
				want[k] = append(want[k], pos)
			}
			switch n := len(*o.view); {
			case n == 0:
				drops[o.s]++
			case n >= 2:
				coalesced++
			}
		}
		got := map[key][]int{}
		for _, m := range conn.sent {
			pos := int(packet.FrameSeq(m.Buf[packet.SessionIDSize:]))
			if id := binary.BigEndian.Uint32(m.Buf); id != queue[pos].s.id {
				t.Fatalf("seed %d: queue entry %d sent with session ID %d, want %d", seed, pos, id, queue[pos].s.id)
			}
			k := key{m.Addr, classOf(pos)}
			got[k] = append(got[k], pos)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d (destination, kind) streams sent, want %d", seed, len(got), len(want))
		}
		for k, w := range want {
			if fmt.Sprint(got[k]) != fmt.Sprint(w) {
				t.Fatalf("seed %d: %v %s frames sent as %v, want %v (queue order, each once)",
					seed, k.dst, k.class, got[k], w)
			}
		}
		if c := sh.counters.coalesced.Load(); c != coalesced {
			t.Fatalf("seed %d: coalesced = %d, want %d", seed, c, coalesced)
		}
		for _, s := range sessions {
			if d := s.counters.Drops.Load(); d != drops[s] {
				t.Fatalf("seed %d: session %d drops = %d, want %d (frames to member-less views)", seed, s.id, d, drops[s])
			}
		}
		for _, v := range views {
			frames := uint64(0)
			for _, o := range queue {
				if o.view == v.view {
					frames++
				}
			}
			for _, tg := range *v.view {
				if out := tg.rx.OutPackets.Load(); out != frames {
					t.Fatalf("seed %d: member %v credited %d sends, want %d", seed, tg.dst, out, frames)
				}
			}
		}
		entryDsts := make([][]netip.AddrPort, size)
		for pos, o := range queue {
			if o.view == nil {
				entryDsts[pos] = []netip.AddrPort{o.dst}
				continue
			}
			for _, tg := range *o.view {
				entryDsts[pos] = append(entryDsts[pos], tg.dst)
			}
		}
		flushes := uint64(flushCut(entryDsts))
		if w, f := sh.counters.writes.Load(), sh.counters.flushes.Load(); w != uint64(size) || f != flushes {
			t.Fatalf("seed %d: writes %d in %d flushes, want %d in %d", seed, w, f, size, flushes)
		}
		type cell struct {
			flush uint64
			dst   netip.AddrPort
		}
		per := map[cell]int{}
		for i, m := range conn.sent {
			c := cell{conn.flushOf[i], m.Addr}
			if per[c]++; per[c] > flushSize {
				t.Fatalf("seed %d: flush %d sends %v more than %d datagrams", seed, c.flush, c.dst, flushSize)
			}
		}
		if d := sh.counters.sentDatagrams.Load(); d != uint64(len(conn.sent)) {
			t.Fatalf("seed %d: sent datagrams = %d, want the %d the conn took", seed, d, len(conn.sent))
		}
	}
}

// encodeGroups encodes groups FEC groups of code p for session s — distinct
// 300-byte payloads, so a group's data frames are equal in size and its
// parity frames two bytes longer — and hands emit each share as the
// session-ID-stamped datagram the shard sends, in encoder order: a group's
// data frames, then its parity frames.
func encodeGroups(tb testing.TB, s *Session, p fec.Params, groups int, emit func(*packet.Buf)) {
	coder, err := fec.CoderFor(p)
	if err != nil {
		tb.Fatal(err)
	}
	enc := fec.NewFrameEncoder(coder, 1)
	for g := 0; g < groups; g++ {
		for i := 0; i < p.K; i++ {
			b := packet.GetFrameBuf(packet.HeaderSize + 300)
			if err := packet.PutFrameHeader(b.B, &packet.Packet{Kind: packet.KindData}, 300); err != nil {
				tb.Fatal(err)
			}
			clear(b.B[packet.HeaderSize:])
			binary.BigEndian.PutUint32(b.B[packet.HeaderSize:], uint32(g*p.K+i))
			if _, err := enc.Add(b); err != nil {
				tb.Fatal(err)
			}
		}
		if err := enc.EncodeBufs(func(b *packet.Buf) {
			b = datagram(b)
			packet.PutSessionID(b.B, s.id)
			emit(b)
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

// repairAll runs one member's datagrams, in the order they were sent,
// through a 64-group frame decoder — the default depth — that loses data
// frame 1 of every group, and fails unless data frames and repairs come out
// as wanted.
func repairAll(t *testing.T, who string, dgrams [][]byte, wantData, wantRepairs int) {
	t.Helper()
	dec := fec.NewFrameDecoder(64)
	delivered := 0
	for _, d := range dgrams {
		frame := d[packet.SessionIDSize:]
		if _, index, _, _ := packet.FrameBlock(frame); index == 1 {
			continue
		}
		b := packet.GetBuf(len(frame))
		copy(b.B, frame)
		if err := dec.Add(b, func(out *packet.Buf) {
			delivered++
			out.Release()
		}); err != nil {
			t.Fatalf("%s: decode: %v", who, err)
		}
	}
	if delivered != wantData || dec.Recovered() != uint64(wantRepairs) {
		t.Fatalf("%s: decoder delivered %d data frames with %d repairs, want %d with %d",
			who, delivered, dec.Recovered(), wantData, wantRepairs)
	}
}

// TestFlushFullQueueKeepsFECRepairable fills a queue with real FEC groups for
// three receivers — as one cohort entry per frame, or as one unicast entry
// per frame and receiver — with another session's unicast datagrams at random
// places between them so flush boundaries fall anywhere in a group, and sends
// it. The codes are the adaptive policy's first, (5,4), and (8,4); in the
// lone cases ten of every eleven (5,4) groups lost all but their first data
// frame upstream, so a flush spans as many groups as it sends a receiver
// frames. The rcv=8 cases spread the queue over eight receivers, so a flush
// takes far more than 64 entries: up to 64 cohort frames, or flushEntries
// unicast entries. flush sends a group's parity after later groups' data;
// per receiver, a 64-group decoder losing data frame 1 of every group must
// still hold each complete group when its parity arrives, and so repair all
// of them.
func TestFlushFullQueueKeepsFECRepairable(t *testing.T) {
	for _, tc := range []struct {
		p         fec.Params
		lone      int  // groups reduced to one data frame after each complete one
		unicast   bool // one unicast entry per receiver instead of a cohort entry
		receivers int  // 0: 3
	}{
		{fec.Params{K: 4, N: 5}, 0, false, 0}, {fec.Params{K: 4, N: 8}, 0, false, 0}, {fec.Params{K: 4, N: 5}, 10, false, 0},
		{fec.Params{K: 4, N: 5}, 0, true, 0}, {fec.Params{K: 4, N: 8}, 0, true, 0}, {fec.Params{K: 4, N: 5}, 10, true, 0},
		{fec.Params{K: 4, N: 8}, 0, false, 8}, {fec.Params{K: 4, N: 5}, 10, false, 8}, {fec.Params{K: 4, N: 5}, 10, true, 8},
	} {
		name := fmt.Sprintf("%v/lone=%d", tc.p, tc.lone)
		if tc.unicast {
			name += "/unicast"
		}
		receivers := 3
		if tc.receivers != 0 {
			receivers = tc.receivers
			name += fmt.Sprintf("/rcv=%d", receivers)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.p.N + tc.lone + tc.receivers)))
			view := make([]target, receivers)
			for i := range view {
				view[i] = target{dst: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 7, 0, byte(i + 1)}), 9000),
					rx: &metrics.ReceiverCounters{}}
			}
			perFrame := 1 // queue entries per frame
			if tc.unicast {
				perFrame = len(view)
			}
			s, other := &Session{id: 1}, &Session{id: 2}
			complete := writeqSize * 7 / 8 / (perFrame * (tc.p.N + tc.lone))
			groups := complete * (tc.lone + 1)
			var frames []*packet.Buf
			g := -1
			encodeGroups(t, s, tc.p, groups, func(b *packet.Buf) {
				if _, index, _, _ := packet.FrameBlock(b.B[packet.SessionIDSize:]); index == 0 {
					g++
				} else if g%(tc.lone+1) != 0 {
					b.Release() // lost upstream
					return
				}
				frames = append(frames, b)
			})

			conn := &prefixConn{rng: rng}
			sh := &shard{bconn: conn}
			queue := make([]outbound, 0, writeqSize)
			for len(queue) < writeqSize {
				if len(frames) > 0 && rng.Intn(writeqSize-len(queue)) < perFrame*len(frames) {
					b := frames[0]
					frames = frames[1:]
					if !tc.unicast {
						queue = append(queue, outbound{s: s, b: b, view: &view})
						continue
					}
					b.Retain(len(view) - 1) // one reference per entry
					for _, tg := range view {
						queue = append(queue, outbound{s: s, b: b, dst: tg.dst, rx: tg.rx})
					}
					continue
				}
				queue = append(queue, outbound{s: other, b: flushFrame(t, other.id, packet.KindData, len(queue), 64),
					dst: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 7, 1, 1}), 9000)})
			}
			for _, o := range queue {
				o.b.Retain(1) // keeps what conn recorded readable after the flush
				defer o.b.Release()
				if !sh.push(o) {
					t.Fatal("a full queue refused an entry")
				}
			}
			sh.sendQueue()

			for _, tg := range view {
				var got [][]byte
				for _, m := range conn.sent {
					if m.Addr == tg.dst {
						got = append(got, m.Buf)
					}
				}
				repairAll(t, tg.dst.String(), got, complete*tc.p.K+groups-complete, complete)
			}
			if entries := sh.counters.writes.Load() / sh.counters.flushes.Load(); receivers > 3 && entries <= flushSize {
				t.Fatalf("%d entries per flush, want more than %d", entries, flushSize)
			}
		})
	}
}

// discardConn accepts every datagram and sends none.
type discardConn struct{}

func (discardConn) ReadBatch([]ioMsg) (int, error)     { return 0, net.ErrClosed }
func (discardConn) WriteBatch(ms []ioMsg) (int, error) { return len(ms), nil }

// fullQueueFlush returns one op that fills a shard's tail queue to
// writeqSize with cohort frames — FEC (8,4) groups, data then parity, the
// parity two bytes longer — for a view of 8 members, and sends it.
func fullQueueFlush(tb testing.TB) func() {
	view := make([]target, 8)
	for i := range view {
		view[i] = target{dst: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 6, 0, byte(i + 1)}), 9000),
			rx: &metrics.ReceiverCounters{}}
	}
	s := &Session{id: 1}
	sh := &shard{bconn: discardConn{}}
	frames := make([]*packet.Buf, writeqSize)
	for i := range frames {
		kind, size := packet.KindData, 200
		if i%8 >= 4 {
			kind, size = packet.KindParity, 202
		}
		frames[i] = flushFrame(tb, 1, kind, i, size)
	}
	tb.Cleanup(func() {
		for _, b := range frames {
			b.Release()
		}
	})
	return func() {
		for _, b := range frames {
			b.Retain(1) // the flush releases one reference per entry
			sh.push(outbound{s: s, b: b, view: &view})
		}
		sh.sendQueue()
	}
}

// BenchmarkShardFlushFullQueue times the expansion and send of a full queue
// of cohort frames to 8 members. TestShardFlushFullQueueAllocs holds it
// allocation-free.
func BenchmarkShardFlushFullQueue(b *testing.B) {
	op := fullQueueFlush(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// fanoutBatchFlush returns one op that queues what a fan-out reader batch of
// batchSize source frames queues — per frame a bypass-lane entry for 4
// members and an FEC (8,4) cohort's data frame for 4 others, and after every
// 4 frames the cohort's 4 parity frames, two bytes longer: 96 entries, 64
// datagrams to each cohort member — and sends it, in one flush.
func fanoutBatchFlush(tb testing.TB) func() {
	viewOf := func(first byte) *[]target {
		v := make([]target, 4)
		for i := range v {
			v[i] = target{dst: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 6, 1, first + byte(i)}), 9000),
				rx: &metrics.ReceiverCounters{}}
		}
		return &v
	}
	bypass, cohort := viewOf(1), viewOf(5)
	s := &Session{id: 1}
	sh := &shard{bconn: discardConn{}}
	var queue []outbound
	for i := 0; i < batchSize; i++ {
		queue = append(queue,
			outbound{s: s, b: flushFrame(tb, 1, packet.KindData, i, 200), view: bypass},
			outbound{s: s, b: flushFrame(tb, 1, packet.KindData, i, 200), view: cohort})
		if i%4 == 3 {
			for j := 0; j < 4; j++ {
				queue = append(queue, outbound{s: s, b: flushFrame(tb, 1, packet.KindParity, i, 202), view: cohort})
			}
		}
	}
	tb.Cleanup(func() {
		for _, o := range queue {
			o.b.Release()
		}
	})
	return func() {
		for _, o := range queue {
			o.b.Retain(1) // the flush releases one reference per entry
			sh.push(o)
		}
		sh.sendQueue()
	}
}

// BenchmarkShardFlushFanoutBatch times the expansion and send of one fan-out
// reader batch's queue. TestShardFlushFullQueueAllocs holds it
// allocation-free.
func BenchmarkShardFlushFanoutBatch(b *testing.B) {
	op := fanoutBatchFlush(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestShardFlushFullQueueAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for name, op := range map[string]func(){"full-queue": fullQueueFlush(t), "fan-out batch": fanoutBatchFlush(t)} {
		op() // grows the reused expansion scratch to its steady size
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Fatalf("%v allocs per %s flush, want 0", n, name)
		}
	}
}

// unicastPeersFlush returns one op that queues one flush of flushSize unicast
// entries — FEC (8,4) shares, data then parity, the parity two bytes longer —
// spread round-robin over peers distinct destinations, and sends it.
func unicastPeersFlush(tb testing.TB, peers int) func() {
	s := &Session{id: 1}
	sh := &shard{bconn: discardConn{}}
	queue := make([]outbound, flushSize)
	for i := range queue {
		kind, size := packet.KindData, 200
		if i%8 >= 4 {
			kind, size = packet.KindParity, 202
		}
		queue[i] = outbound{s: s, b: flushFrame(tb, 1, kind, i, size),
			dst: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 8, byte(i % peers), 1}), 9000)}
	}
	tb.Cleanup(func() {
		for _, o := range queue {
			o.b.Release()
		}
	})
	return func() {
		for _, o := range queue {
			o.b.Retain(1) // the flush releases one reference per entry
			sh.push(o)
		}
		sh.sendQueue()
	}
}

// BenchmarkShardFlushUnicastPeers times one flush of unicast entries to 2 and
// to 64 distinct peers, reported per datagram. TestShardFlushUnicastPeersAllocs
// holds it allocation-free.
func BenchmarkShardFlushUnicastPeers(b *testing.B) {
	for _, peers := range []int{2, 64} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			op := unicastPeersFlush(b, peers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*flushSize), "ns/datagram")
		})
	}
}

func TestShardFlushUnicastPeersAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, peers := range []int{2, 64} {
		op := unicastPeersFlush(t, peers)
		op() // grows the reused expansion scratch to its steady size
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Fatalf("%v allocs per unicast flush to %d peers, want 0", n, peers)
		}
	}
}

// TestDrainWriteQueueCountsDiscards queues unicast and cohort entries on a
// shard's queue and drains them as Close does with what the readers left:
// every discarded entry must be released and counted like a full-queue drop —
// to its session, to its receiver or to every member of its view, and to the
// shard's write drops. On a running engine, an entry a reader batch queued
// whose batch ends after Close, and one queued after Close, are discarded
// the same way.
func TestDrainWriteQueueCountsDiscards(t *testing.T) {
	sh := &shard{}
	s1, s2 := &Session{id: 1}, &Session{id: 2}
	rx := &metrics.ReceiverCounters{}
	view := []target{
		{dst: netip.MustParseAddrPort("10.9.0.1:9000"), rx: &metrics.ReceiverCounters{}},
		{dst: netip.MustParseAddrPort("10.9.0.2:9000"), rx: &metrics.ReceiverCounters{}},
	}
	empty := []target{}
	u := netip.MustParseAddrPort("10.9.0.3:9000")
	var frames []*packet.Buf
	entry := func(o outbound) outbound {
		o.b = flushFrame(t, o.s.id, packet.KindData, len(frames), 64)
		o.b.Retain(1) // keeps the buffer checkable after the drain
		frames = append(frames, o.b)
		return o
	}
	queue := func(o outbound) {
		if !sh.push(entry(o)) {
			t.Fatal("queue refused an entry")
		}
	}
	queue(outbound{s: s1, dst: u})
	queue(outbound{s: s1, dst: u, rx: rx})
	queue(outbound{s: s2, view: &view})
	queue(outbound{s: s2, view: &view})
	queue(outbound{s: s2, view: &empty})
	queue(outbound{s: s1, dst: u, rx: rx})
	sh.drainQueue()

	checkReleased := func() {
		t.Helper()
		for _, b := range frames {
			if b.Refs() != 1 {
				t.Fatalf("a drained frame holds %d references, want the test's 1", b.Refs())
			}
			b.Release()
		}
		frames = frames[:0]
	}
	checkReleased()
	for _, c := range []struct {
		what      string
		got, want uint64
	}{
		{"session 1 drops", s1.counters.Drops.Load(), 3},
		{"session 2 drops", s2.counters.Drops.Load(), 3},
		{"unicast receiver drops", rx.Drops.Load(), 2},
		{"member 1 drops", view[0].rx.Drops.Load(), 2},
		{"member 2 drops", view[1].rx.Drops.Load(), 2},
		{"shard write drops", sh.counters.writeDrops.Load(), 6},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
	if len(sh.wq) != 0 || sh.queued.Load() != 0 {
		t.Fatalf("queue holds %d entries (queued %d) after the drain, want none", len(sh.wq), sh.queued.Load())
	}

	e := newTestEngine(t, Config{Shards: 1})
	s3 := &Session{id: 3}
	esh := &e.shards[0]
	e.beginBatch() // a reader batch is under way: the entry waits for its end
	esh.enqueue(entry(outbound{s: s3, dst: u, rx: rx}))
	e.Close()
	e.endBatch()
	esh.enqueue(entry(outbound{s: s3, view: &view}))
	checkReleased()
	if got := s3.counters.Drops.Load(); got != 2 {
		t.Errorf("session 3 drops = %d, want 2", got)
	}
	if got := e.Stats().WriteDrops; got != 2 {
		t.Errorf("engine write drops = %d, want 2", got)
	}
	if len(esh.wq) != 0 {
		t.Fatalf("queue holds %d entries after Close, want none", len(esh.wq))
	}
}

// gateConn records what it sends, after holding each WriteBatch call until
// the test opens the gate; entered reports calls while it has room.
type gateConn struct {
	entered chan struct{}
	gate    chan struct{}
	sent    atomic.Int64
}

func (c *gateConn) ReadBatch([]ioMsg) (int, error) { return 0, net.ErrClosed }
func (c *gateConn) WriteBatch(ms []ioMsg) (int, error) {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	<-c.gate
	c.sent.Add(int64(len(ms)))
	return len(ms), nil
}

// TestCombiningSendStrandsNothing: while one producer sends the queue, a
// second producer's entry is left to it — the second one's send finds the
// queue taken and returns — and the sender, re-checking after it lets go,
// sends that entry too, with no later producer to carry it.
func TestCombiningSendStrandsNothing(t *testing.T) {
	conn := &gateConn{entered: make(chan struct{}, 2), gate: make(chan struct{})}
	sh := &shard{eng: &Engine{}, bconn: conn}
	s := &Session{id: 1}
	u := netip.MustParseAddrPort("10.9.0.4:9000")
	first := make(chan struct{})
	go func() {
		defer close(first)
		sh.enqueue(outbound{s: s, b: flushFrame(t, 1, packet.KindData, 0, 64), dst: u})
	}()
	<-conn.entered // the first producer is mid-send
	sh.enqueue(outbound{s: s, b: flushFrame(t, 1, packet.KindData, 1, 64), dst: u})
	if got := sh.queued.Load(); got != 1 {
		t.Fatalf("queued = %d while the first send runs, want the second entry left to it", got)
	}
	close(conn.gate)
	<-first
	if got := conn.sent.Load(); got != 2 {
		t.Fatalf("%d datagrams sent once the first producer returned, want 2", got)
	}
	if got := sh.queued.Load(); got != 0 {
		t.Fatalf("queued = %d, want 0", got)
	}
}

// TestSendHolderLeavesBatchTraffic: a producer sending under a lock of its
// own (a tail's timer, a control edit) is mid-send while a reader's batch
// pushes past the high-water mark, its sends finding the queue taken. Once
// its pass is done the producer returns — releasing its lock — and leaves
// the batch's entries to the batch: the batch's end sends them.
func TestSendHolderLeavesBatchTraffic(t *testing.T) {
	conn := &gateConn{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	e := &Engine{shards: make([]shard, 1)}
	sh := &e.shards[0]
	sh.eng, sh.bconn = e, conn
	s := &Session{id: 1}
	u := netip.MustParseAddrPort("10.9.0.5:9000")
	var mu sync.Mutex // the producer's own lock, which a reader's dispatch would need
	first := make(chan struct{})
	go func() {
		defer close(first)
		mu.Lock()
		defer mu.Unlock()
		sh.enqueue(outbound{s: s, b: flushFrame(t, 1, packet.KindData, 0, 64), dst: u})
	}()
	<-conn.entered // the producer is mid-send
	e.beginBatch() // a reader's batch is under way
	const pushed = 2 * sendHighWater
	for seq := 1; seq <= pushed; seq++ {
		sh.enqueue(outbound{s: s, b: flushFrame(t, 1, packet.KindData, seq, 64), dst: u})
	}
	close(conn.gate)
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("the producer did not return")
	}
	if !mu.TryLock() {
		t.Fatal("the producer still holds its lock")
	}
	mu.Unlock()
	if got, q := conn.sent.Load(), sh.queued.Load(); got != 1 || q != pushed {
		t.Fatalf("the producer sent %d datagrams and left %d queued, want its own 1 and the batch's %d", got, q, pushed)
	}
	e.endBatch()
	if got := conn.sent.Load(); got != 1+pushed {
		t.Fatalf("%d datagrams sent after the batch's end, want %d", got, 1+pushed)
	}
}
