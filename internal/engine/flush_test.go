package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"testing"

	"rapidware/internal/fec"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
	"rapidware/internal/race"
)

// prefixConn accepts a random non-empty prefix of every WriteBatch, so a
// flush's expansion reaches the wire over several calls, and records what it
// accepted in order.
type prefixConn struct {
	rng  *rand.Rand
	sent []ioMsg
}

func (c *prefixConn) ReadBatch([]ioMsg) (int, error) { return 0, net.ErrClosed }
func (c *prefixConn) WriteBatch(ms []ioMsg) (int, error) {
	n := 1 + c.rng.Intn(len(ms))
	c.sent = append(c.sent, ms[:n]...)
	return n, nil
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
// members — through sendQueue onto a conn that takes a random prefix of each
// call, and checks flush's contract: every (member, frame) pair is sent
// exactly once; per destination and session, cohort data frames keep queue
// order and parity frames keep queue order; unicast datagrams keep queue
// order outright; and the coalesced, drop, write, flush and sent-datagram
// counters are exact.
func TestFlushKeepsPerKindOrderOnRandomBatches(t *testing.T) {
	dsts := make([]netip.AddrPort, 8)
	for i := range dsts {
		dsts[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 5, 0, byte(i + 1)}), 9000)
	}
	sh := &shard{} // one shard throughout: its flush scratch is reused
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sessions := []*Session{{id: 1}, {id: 2}}
		// Each session's views have disjoint members, as a session's cohorts
		// do; the two sessions share destinations.
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
		if seed > 1 {
			size = 1 + rng.Intn(300)
		}
		conn := &prefixConn{rng: rng}
		sh.bconn, sh.counters = conn, shardCounters{}
		queue := make([]outbound, size)
		for pos := range queue {
			if rng.Intn(4) == 0 {
				s := sessions[rng.Intn(len(sessions))]
				queue[pos] = outbound{s: s, b: flushFrame(t, s.id, packet.KindData, pos, 40+rng.Intn(60)),
					dst: dsts[rng.Intn(len(dsts))]}
				continue
			}
			v := views[rng.Intn(len(views))]
			kind, frameSize := packet.KindData, 100
			if rng.Intn(3) == 0 {
				kind, frameSize = packet.KindParity, 102
			}
			if rng.Intn(5) == 0 {
				frameSize = 40 + rng.Intn(200)
			}
			queue[pos] = outbound{s: v.s, b: flushFrame(t, v.s.id, kind, pos, frameSize), view: v.view}
		}
		parity := make([]bool, size)
		for pos, o := range queue {
			parity[pos] = isParity(o.b.B)
			o.b.Retain(1) // keeps what conn recorded readable after the flush
			if !sh.push(&sh.tq, o) {
				t.Fatalf("seed %d: queue of %d refused an entry", seed, size)
			}
		}
		sh.sendQueue(&sh.tq)
		for _, o := range queue {
			if o.b.Refs() != 1 {
				t.Fatalf("seed %d: a flushed frame holds %d references, want the test's 1", seed, o.b.Refs())
			}
			defer o.b.Release()
		}

		// What the queue promises: the frames each (destination, session)
		// must receive per class, in queue order, and the exact counters.
		type key struct {
			dst   netip.AddrPort
			id    uint32
			class string
		}
		want := map[key][]int{}
		var unicast []int
		var coalesced uint64
		drops := map[*Session]uint64{}
		for pos, o := range queue {
			if o.view == nil {
				want[key{o.dst, o.s.id, "unicast"}] = append(want[key{o.dst, o.s.id, "unicast"}], pos)
				unicast = append(unicast, pos)
				continue
			}
			class := "data"
			if parity[pos] {
				class = "parity"
			}
			for _, tg := range *o.view {
				want[key{tg.dst, o.s.id, class}] = append(want[key{tg.dst, o.s.id, class}], pos)
			}
			switch n := len(*o.view); {
			case n == 0:
				drops[o.s]++
			case n >= 2:
				coalesced++
			}
		}
		got := map[key][]int{}
		var gotUnicast []int
		for _, m := range conn.sent {
			id := binary.BigEndian.Uint32(m.Buf)
			pos := int(packet.FrameSeq(m.Buf[packet.SessionIDSize:]))
			class := "data"
			switch {
			case queue[pos].view == nil:
				class = "unicast"
				gotUnicast = append(gotUnicast, pos)
			case parity[pos]:
				class = "parity"
			}
			got[key{m.Addr, id, class}] = append(got[key{m.Addr, id, class}], pos)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d (destination, session, kind) streams sent, want %d", seed, len(got), len(want))
		}
		for k, w := range want {
			if fmt.Sprint(got[k]) != fmt.Sprint(w) {
				t.Fatalf("seed %d: %v session %d %s frames sent as %v, want %v (queue order, each once)",
					seed, k.dst, k.id, k.class, got[k], w)
			}
		}
		if fmt.Sprint(gotUnicast) != fmt.Sprint(unicast) {
			t.Fatalf("seed %d: unicast sent as %v, want queue order %v", seed, gotUnicast, unicast)
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
		flushes := uint64((size + flushSize - 1) / flushSize)
		if w, f := sh.counters.writes.Load(), sh.counters.flushes.Load(); w != uint64(size) || f != flushes {
			t.Fatalf("seed %d: writes %d in %d flushes, want %d in %d", seed, w, f, size, flushes)
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
// a cohort of three, with another session's unicast datagrams at random
// places between them so flush boundaries fall anywhere in a group, and
// sends it. The codes are the adaptive policy's first, (5,4), and (8,4); in
// the last case ten of every eleven (5,4) groups lost all but their first
// data frame upstream, so a flush spans as many groups as it holds frames.
// flush sends a group's parity after later groups' data; per member, a
// 64-group decoder losing data frame 1 of every group must still hold each
// complete group when its parity arrives, and so repair all of them.
func TestFlushFullQueueKeepsFECRepairable(t *testing.T) {
	for _, tc := range []struct {
		p    fec.Params
		lone int // groups reduced to one data frame after each complete one
	}{{fec.Params{K: 4, N: 5}, 0}, {fec.Params{K: 4, N: 8}, 0}, {fec.Params{K: 4, N: 5}, 10}} {
		t.Run(fmt.Sprintf("%v/lone=%d", tc.p, tc.lone), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.p.N + tc.lone)))
			view := make([]target, 3)
			for i := range view {
				view[i] = target{dst: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 7, 0, byte(i + 1)}), 9000),
					rx: &metrics.ReceiverCounters{}}
			}
			s, other := &Session{id: 1}, &Session{id: 2}
			complete := writeqSize * 7 / 8 / (tc.p.N + tc.lone)
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
				if len(frames) > 0 && rng.Intn(writeqSize-len(queue)) < len(frames) {
					queue = append(queue, outbound{s: s, b: frames[0], view: &view})
					frames = frames[1:]
					continue
				}
				queue = append(queue, outbound{s: other, b: flushFrame(t, other.id, packet.KindData, len(queue), 64),
					dst: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 7, 1, 1}), 9000)})
			}
			for _, o := range queue {
				o.b.Retain(1) // keeps what conn recorded readable after the flush
				defer o.b.Release()
				if !sh.push(&sh.tq, o) {
					t.Fatal("a full queue refused an entry")
				}
			}
			sh.sendQueue(&sh.tq)

			for _, tg := range view {
				var got [][]byte
				for _, m := range conn.sent {
					if m.Addr == tg.dst {
						got = append(got, m.Buf)
					}
				}
				repairAll(t, tg.dst.String(), got, complete*tc.p.K+groups-complete, complete)
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
			sh.push(&sh.tq, outbound{s: s, b: b, view: &view})
		}
		sh.sendQueue(&sh.tq)
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

func TestShardFlushFullQueueAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	op := fullQueueFlush(t)
	op() // grows the reused expansion scratch to its steady size
	if n := testing.AllocsPerRun(20, op); n != 0 {
		t.Fatalf("%v allocs per full-queue flush, want 0", n)
	}
}
