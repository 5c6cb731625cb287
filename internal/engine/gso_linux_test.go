//go:build linux

package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/metrics"
	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
	"rapidware/internal/race"
)

// TestEngineGSORejectedLosesNothing starts an engine whose socket refuses
// UDP GSO — the kernel rejects UDP_SEGMENT with EINVAL once UDP checksums are
// off (SO_NO_CHECK) — and sends one client's bursts. The echo flush that
// finds GSO refused must still deliver its whole batch: every frame comes
// back in order and nothing is counted as dropped. Whether one burst's echoes
// share a flush depends on how the reader's wakeups fall, so several bursts
// are sent to make sure some flush carries a run.
func TestEngineGSORejectedLosesNothing(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1})
	rc, err := e.conns[0].SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var soerr error
	if err := rc.Control(func(fd uintptr) {
		soerr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || soerr != nil {
		t.Fatalf("SO_NO_CHECK: %v %v", err, soerr)
	}

	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := netbatch.New(c, netbatch.Options{})
	dst := e.LocalAddr().(*net.UDPAddr).AddrPort()
	const bursts, burst = 8, 16
	buf := make([]byte, packet.MaxDatagram)
	for seq := uint64(0); seq < bursts*burst; {
		ms := make([]ioMsg, burst)
		for i := range ms {
			ms[i] = ioMsg{Buf: mustDatagram(t, 1, seq+uint64(i), make([]byte, 200)), Addr: dst}
		}
		if n, err := bc.WriteBatch(ms); n != burst || err != nil {
			t.Fatalf("client WriteBatch = (%d, %v), want (%d, nil)", n, err, burst)
		}
		for i := 0; i < burst; i, seq = i+1, seq+1 {
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := c.Read(buf)
			if err != nil {
				t.Fatalf("echo of seq %d: %v", seq, err)
			}
			_, frame, err := packet.SplitSessionID(buf[:n])
			if err != nil {
				t.Fatal(err)
			}
			p, _, err := packet.Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			if p.Seq != seq {
				t.Fatalf("echo carries seq %d, want %d: order broken", p.Seq, seq)
			}
		}
	}
	waitFor(t, "every echo on the session counters", func() bool {
		return e.Session(1).Stats().OutPackets == bursts*burst
	})
	if drops, wdrops := e.Session(1).Stats().Drops, e.Stats().WriteDrops; drops != 0 || wdrops != 0 {
		t.Fatalf("session drops %d, shard write drops %d: want 0 and 0", drops, wdrops)
	}
	if gso := e.Stats().GSODatagrams; gso != 0 {
		t.Fatalf("GSODatagrams = %d on a socket that refuses GSO, want 0", gso)
	}
}

// TestFlushSendsFECCohortInTwoGSORunsPerMember flushes four real (8,4) FEC
// groups of one cohort to two UDP_GRO receivers over loopback. A parity frame
// is two bytes longer than its group's data, so per member the flush must send
// every data frame as one GSO run and every parity frame as another: two
// kernel entries per member where group-by-group order takes eight. Each
// receiver then gets the data in queue order, then the parity in queue order,
// and a frame decoder missing one data frame per group repairs all four.
func TestFlushSendsFECCohortInTwoGSORunsPerMember(t *testing.T) {
	if !gsoAvailable {
		t.Skip("UDP GSO not available in this build")
	}
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	sh := &shard{}
	sh.bconn = netbatch.New(listen(), netbatch.Options{GSO: true, Entries: &sh.counters.sendEntries})
	rxs := []*net.UDPConn{listen(), listen()}
	view := make([]target, len(rxs))
	for i, rx := range rxs {
		view[i] = target{dst: rx.LocalAddr().(*net.UDPAddr).AddrPort(), rx: &metrics.ReceiverCounters{}}
	}

	const groups = 4
	p := fec.Params{K: 4, N: 8}
	s := &Session{id: 7}
	var data, parity [][]byte // the datagrams in queue order, by kind
	encodeGroups(t, s, p, groups, func(b *packet.Buf) {
		if isParity(b.B) {
			parity = append(parity, bytes.Clone(b.B))
		} else {
			data = append(data, bytes.Clone(b.B))
		}
		sh.push(outbound{s: s, b: b, view: &view})
	})
	sh.sendQueue()
	if got := sh.counters.sendEntries.Load(); got != 2*uint64(len(rxs)) {
		t.Fatalf("%d send entries for %d members, want 2 each: a data run and a parity run", got, len(rxs))
	}

	want := append(data, parity...)
	for r, rx := range rxs {
		got := readGRO(t, rx, len(want))
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("receiver %d: datagram %d is not the %d-th of data-then-parity queue order", r, i, i)
			}
		}

		repairAll(t, fmt.Sprintf("receiver %d", r), got, groups*p.K, groups)
	}
}

// readGRO reads want datagrams off a UDP_GRO receiver, splitting coalesced
// slots into their segments, and fails if more or fewer arrive.
func readGRO(t *testing.T, rx *net.UDPConn, want int) [][]byte {
	t.Helper()
	br := netbatch.New(rx, netbatch.Options{GRO: true})
	ms := make([]ioMsg, batchSize)
	var got [][]byte
	for len(got) < want {
		for i := range ms {
			ms[i].Buf = make([]byte, packet.MaxDatagram)
		}
		rx.SetReadDeadline(time.Now().Add(2 * time.Second))
		m, err := br.ReadBatch(ms)
		if err != nil {
			t.Fatalf("receiver %v after %d datagrams: %v", rx.LocalAddr(), len(got), err)
		}
		for _, msg := range ms[:m] {
			seg := msg.Seg
			if seg == 0 {
				seg = msg.N
			}
			for off := 0; off < msg.N; off += seg {
				got = append(got, msg.Buf[off:min(off+seg, msg.N)])
			}
		}
	}
	if len(got) != want {
		t.Fatalf("receiver %v got %d datagrams, want %d", rx.LocalAddr(), len(got), want)
	}
	return got
}

// TestFlushSendsEachDestinationOneRunPerKind flushes, interleaved at random,
// three sessions' unicast (8,4) FEC output of equal payload size to one
// UDP_GRO receiver and the data frames of two sessions' cohort views that
// share a second receiver — 64 queue entries, one flush — over loopback. The
// flush must lay itself out destination-major whatever the sessions and views:
// the first receiver gets every data frame as one GSO run and every parity
// frame as another, the second every frame as one run, so three kernel
// entries carry it all. Each receiver then gets its data in queue order, then
// its parity in queue order, and per session a frame decoder missing one data
// frame per group repairs every group.
func TestFlushSendsEachDestinationOneRunPerKind(t *testing.T) {
	if !gsoAvailable {
		t.Skip("UDP GSO not available in this build")
	}
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	sh := &shard{}
	sh.bconn = netbatch.New(listen(), netbatch.Options{GSO: true, Entries: &sh.counters.sendEntries})
	uni, shared := listen(), listen()
	uniDst := uni.LocalAddr().(*net.UDPAddr).AddrPort()
	member := target{dst: shared.LocalAddr().(*net.UDPAddr).AddrPort(), rx: &metrics.ReceiverCounters{}}
	viewA, viewB := []target{member}, []target{member}

	// One stream of queue entries per source, interleaved below.
	const groups = 2
	p := fec.Params{K: 4, N: 8}
	var streams [][]outbound
	for id := uint32(11); id <= 13; id++ {
		s := &Session{id: id}
		var st []outbound
		encodeGroups(t, s, p, groups, func(b *packet.Buf) {
			st = append(st, outbound{s: s, b: b, dst: uniDst})
		})
		streams = append(streams, st)
	}
	for i, view := range []*[]target{&viewA, &viewB} {
		s := &Session{id: uint32(21 + i)}
		var st []outbound
		for seq := 0; seq < 8; seq++ {
			st = append(st, outbound{s: s, b: flushFrame(t, s.id, packet.KindData, seq, 200), view: view})
		}
		streams = append(streams, st)
	}
	var wantUni, wantParity, wantShared [][]byte // queue order per receiver and kind
	rng := rand.New(rand.NewSource(1))
	entries := 0
	for len(streams) > 0 {
		i := rng.Intn(len(streams))
		o := streams[i][0]
		if streams[i] = streams[i][1:]; len(streams[i]) == 0 {
			streams = append(streams[:i], streams[i+1:]...)
		}
		switch {
		case o.view != nil:
			wantShared = append(wantShared, bytes.Clone(o.b.B))
		case isParity(o.b.B):
			wantParity = append(wantParity, bytes.Clone(o.b.B))
		default:
			wantUni = append(wantUni, bytes.Clone(o.b.B))
		}
		if !sh.push(o) {
			t.Fatal("queue refused an entry")
		}
		entries++
	}
	if entries != flushSize {
		t.Fatalf("queued %d entries, want one flush of %d", entries, flushSize)
	}
	sh.sendQueue()
	if f := sh.counters.flushes.Load(); f != 1 {
		t.Fatalf("%d flushes, want 1", f)
	}
	if got := sh.counters.sendEntries.Load(); got != 3 {
		t.Fatalf("%d send entries, want 3: a data run and a parity run to the unicast receiver, one run to the shared member", got)
	}

	wantUni = append(wantUni, wantParity...)
	got := readGRO(t, uni, len(wantUni))
	bySession := map[uint32][][]byte{}
	for i := range wantUni {
		if !bytes.Equal(got[i], wantUni[i]) {
			t.Fatalf("unicast receiver: datagram %d is not the %d-th of data-then-parity queue order", i, i)
		}
		id := binary.BigEndian.Uint32(got[i])
		bySession[id] = append(bySession[id], got[i])
	}
	for id, dgrams := range bySession {
		repairAll(t, fmt.Sprintf("unicast receiver, session %d", id), dgrams, groups*p.K, groups)
	}
	got = readGRO(t, shared, len(wantShared))
	for i := range wantShared {
		if !bytes.Equal(got[i], wantShared[i]) {
			t.Fatalf("shared member: datagram %d is not the %d-th in queue order", i, i)
		}
	}
}

// Linux's UDP socket option level and its UDP_SEGMENT option (linux/udp.h).
const (
	solUDP     = 17
	udpSegment = 103
)

// sendRun sends dgrams to dst the way a GSO sender sends a run: one sendmsg
// whose UDP_SEGMENT size is the first datagram's length. Every datagram but
// the last must have that length; the last may be shorter. Over loopback to
// a UDP_GRO socket the run arrives as one receive slot.
func sendRun(t *testing.T, c *net.UDPConn, dst netip.AddrPort, dgrams [][]byte) {
	t.Helper()
	var buf []byte
	for _, d := range dgrams {
		buf = append(buf, d...)
	}
	oob := make([]byte, syscall.CmsgSpace(2))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = solUDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(len(dgrams[0])))
	if _, _, err := c.WriteMsgUDPAddrPort(buf, oob, dst); err != nil {
		t.Fatalf("GSO send of %d datagrams: %v", len(dgrams), err)
	}
}

// groRun builds one run of n datagrams for the GRO ingress tests: sessions 1
// to 4 interleaved, each datagram the next seq of its session (next counts
// them), a 100-byte payload each and a 30-byte one last.
func groRun(t *testing.T, n int, next map[uint32]uint64) [][]byte {
	run := make([][]byte, n)
	for i := range run {
		id := uint32(1 + i%4)
		payload := bytes.Repeat([]byte{byte(next[id])}, 100)
		if i == n-1 {
			payload = payload[:30]
		}
		run[i] = mustDatagram(t, id, next[id], payload)
		next[id]++
	}
	return run
}

// groEcho starts a one-shard echo engine and a loopback client socket, and
// returns them with the engine's address.
func groEcho(tb testing.TB) (*Engine, *net.UDPConn, netip.AddrPort) {
	e, err := New(Config{ListenAddr: "127.0.0.1:0", Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return e, c, e.LocalAddr().(*net.UDPAddr).AddrPort()
}

// startGROIngress is groEcho for the GRO ingress tests: it waits for the
// reader's first read, so the engine's RecvCalls from then on count only
// reads of the test's runs.
func startGROIngress(t *testing.T) (*Engine, *net.UDPConn, netip.AddrPort) {
	t.Helper()
	if !gsoAvailable {
		t.Skip("UDP GSO and GRO not available in this build")
	}
	e, c, dst := groEcho(t)
	waitFor(t, "the reader's first read", func() bool { return e.Stats().RecvCalls > 0 })
	return e, c, dst
}

// requireSessionOrder fails unless got holds exactly the datagrams of want,
// each session's in want's order.
func requireSessionOrder(t *testing.T, got, want [][]byte) {
	t.Helper()
	bySession := func(dgrams [][]byte) map[uint32][][]byte {
		m := map[uint32][][]byte{}
		for _, d := range dgrams {
			id := binary.BigEndian.Uint32(d)
			m[id] = append(m[id], d)
		}
		return m
	}
	g, w := bySession(got), bySession(want)
	if len(got) != len(want) || len(g) != len(w) {
		t.Fatalf("%d echoes over %d sessions, want %d over %d", len(got), len(g), len(want), len(w))
	}
	for id, ws := range w {
		for i := range ws {
			if i >= len(g[id]) || !bytes.Equal(g[id][i], ws[i]) {
				t.Fatalf("session %d: echo %d is not the %d-th datagram it sent", id, i, i)
			}
		}
	}
}

// TestEngineGROIngressOneSlotPerRun sends an engine runs of 48 datagrams —
// four sessions' equal-size datagrams interleaved and a short last one — each
// as one GSO send. The engine's socket takes UDP GRO, so each run reaches the
// reader as one slot: one read that yields it and at most one that finds the
// socket empty, where 48 separate datagrams need two reads of 32 slots before
// that. The reader splits the slot, and every datagram, the short one too, is
// counted, demuxed and echoed in its session's order.
func TestEngineGROIngressOneSlotPerRun(t *testing.T) {
	e, c, dst := startGROIngress(t)
	const runs, perRun = 8, 48
	before := e.Stats()
	next := map[uint32]uint64{}
	for r := 0; r < runs; r++ {
		run := groRun(t, perRun, next)
		sendRun(t, c, dst, run)
		requireSessionOrder(t, readGRO(t, c, perRun), run)
	}
	st := e.Stats()
	if calls := st.RecvCalls - before.RecvCalls; calls > 2*runs {
		t.Fatalf("%d receive calls for %d runs, want at most 2 a run: a run did not arrive as one slot", calls, runs)
	}
	if got := st.Datagrams - before.Datagrams; got != runs*perRun {
		t.Fatalf("Datagrams = %d, want %d: one per datagram, not per slot", got, runs*perRun)
	}
	if st.Malformed != 0 || e.SessionCount() != 4 {
		t.Fatalf("Malformed = %d, SessionCount = %d, want 0 and 4", st.Malformed, e.SessionCount())
	}
}

// TestEngineGROIngressDropsBadSegmentAlone sends one run whose middle
// datagram declares a frame kind that does not exist. The reader validates
// each datagram of the slot on its own: that one is counted malformed and
// dropped, and every other is echoed in its session's order.
func TestEngineGROIngressDropsBadSegmentAlone(t *testing.T) {
	e, c, dst := startGROIngress(t)
	const perRun, bad = 48, 24
	run := groRun(t, perRun, map[uint32]uint64{})
	run[bad][packet.SessionIDSize+3] = 0xee
	sendRun(t, c, dst, run)
	want := append(append([][]byte(nil), run[:bad]...), run[bad+1:]...)
	requireSessionOrder(t, readGRO(t, c, len(want)), want)
	st := e.Stats()
	if st.Malformed != 1 || st.Datagrams != perRun {
		t.Fatalf("Malformed = %d, Datagrams = %d, want 1 and %d", st.Malformed, st.Datagrams, perRun)
	}
}

// groRunLen is the number of datagrams in one groIngress op's run.
const groRunLen = 32

// groIngress starts a one-shard echo engine and a client that sends it runs
// of groRunLen datagrams with 64-byte payloads, four sessions interleaved,
// and returns one op: a run sent and its echoes read back. With gso the
// client's netbatch conn has GSO and GRO on, so the run leaves in one GSO
// send, reaches the engine as one slot, and its echoes come back as one;
// without, each datagram is its own entry both ways.
func groIngress(tb testing.TB, gso bool) func() {
	_, c, dst := groEcho(tb)
	bc := netbatch.New(c, netbatch.Options{GSO: gso, GRO: gso})
	out := make([]ioMsg, groRunLen)
	for i := range out {
		d, err := packet.AppendDatagram(nil, uint32(1+i%4), &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: make([]byte, 64)})
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = ioMsg{Buf: d, Addr: dst}
	}
	in := make([]ioMsg, batchSize)
	for i := range in {
		in[i].Buf = make([]byte, packet.MaxDatagram)
	}
	op := func() {
		if n, err := bc.WriteBatch(out); n != len(out) || err != nil {
			tb.Fatalf("client WriteBatch = (%d, %v), want (%d, nil)", n, err, len(out))
		}
		for got := 0; got < groRunLen; {
			n, err := bc.ReadBatch(in)
			if err != nil {
				tb.Fatal(err)
			}
			for _, m := range in[:n] {
				got++
				if m.Seg > 0 {
					got += (m.N+m.Seg-1)/m.Seg - 1
				}
			}
		}
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	op() // opens the sessions and warms the pools
	c.SetReadDeadline(time.Now().Add(10 * time.Minute))
	return op
}

// BenchmarkEngineGROIngress times one run of groRunLen datagrams through an
// echo engine, from a GSO client and from a plain one, and reports the
// process's CPU time (client and engine, from getrusage) per datagram.
// TestEngineGROIngressAllocs holds the GSO client's op allocation-free.
func BenchmarkEngineGROIngress(b *testing.B) {
	for _, tc := range []struct {
		name string
		gso  bool
	}{{"gso-client", true}, {"plain-client", false}} {
		b.Run(tc.name, func(b *testing.B) {
			if tc.gso && !gsoAvailable {
				b.Skip("UDP GSO and GRO not available in this build")
			}
			op := groIngress(b, tc.gso)
			b.ReportAllocs()
			var r0, r1 syscall.Rusage
			b.ResetTimer()
			syscall.Getrusage(syscall.RUSAGE_SELF, &r0)
			for i := 0; i < b.N; i++ {
				op()
			}
			syscall.Getrusage(syscall.RUSAGE_SELF, &r1)
			b.StopTimer()
			cpu := r1.Utime.Nano() + r1.Stime.Nano() - r0.Utime.Nano() - r0.Stime.Nano()
			b.ReportMetric(float64(cpu)/float64(b.N*groRunLen), "cpu-ns/datagram")
		})
	}
}

func TestEngineGROIngressAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if !gsoAvailable {
		t.Skip("UDP GSO and GRO not available in this build")
	}
	op := groIngress(t, true)
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Fatalf("%v allocs per GRO run of %d datagrams, want 0", n, groRunLen)
	}
}

// fanoutBatchSend starts a one-shard engine that fans session 1 out to 8
// loopback sinks, each reading with UDP GRO — 4 on the bypass lane and 4 in
// one FEC (8,4) cohort, the shape of the fanout-mixed benchmark — and a GSO
// client, and returns the engine and one op: batchSize data frames sent as
// one GSO run, so the engine reads them as one batch, and every datagram the
// fan-out sends read back at the sinks, 32 at each bypass member and 64 (32
// data, 32 parity) at each cohort member.
func fanoutBatchSend(tb testing.TB) (*Engine, func()) {
	sinks := make([]*net.UDPConn, 8)
	bsinks := make([]netbatch.Conn, len(sinks))
	var fanout []string
	for i := range sinks {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { c.Close() })
		sinks[i], bsinks[i] = c, netbatch.New(c, netbatch.Options{GRO: true})
		fanout = append(fanout, c.LocalAddr().String())
	}
	e, err := New(Config{ListenAddr: "127.0.0.1:0", Shards: 1, Fanout: fanout})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	bc := netbatch.New(c, netbatch.Options{GSO: true})
	dst := e.LocalAddr().(*net.UDPAddr).AddrPort()

	out := make([]ioMsg, batchSize)
	for i := range out {
		d, err := packet.AppendDatagram(nil, 1, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: make([]byte, 64)})
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = ioMsg{Buf: d, Addr: dst}
	}
	in := make([]ioMsg, batchSize)
	for i := range in {
		in[i].Buf = make([]byte, packet.MaxDatagram)
	}
	read := func(sink, want int) {
		for got := 0; got < want; {
			n, err := bsinks[sink].ReadBatch(in)
			if err != nil {
				tb.Fatal(err)
			}
			for _, m := range in[:n] {
				got++
				if m.Seg > 0 {
					got += (m.N+m.Seg-1)/m.Seg - 1
				}
			}
		}
	}
	deadline := func(d time.Duration) {
		for _, s := range sinks {
			s.SetReadDeadline(time.Now().Add(d))
		}
	}
	deadline(5 * time.Second)
	// The session's first frame opens it with every member on the bypass
	// lane; then the last 4 members move to the FEC cohort.
	if n, err := bc.WriteBatch(out[:1]); n != 1 || err != nil {
		tb.Fatalf("client WriteBatch = (%d, %v), want (1, nil)", n, err)
	}
	for i := range sinks {
		read(i, 1)
	}
	for _, addr := range fanout[4:] {
		if _, err := e.EditSession(1, addr, compose.Replace("fec-encode=8/4")); err != nil {
			tb.Fatal(err)
		}
	}
	op := func() {
		if n, err := bc.WriteBatch(out); n != len(out) || err != nil {
			tb.Fatalf("client WriteBatch = (%d, %v), want (%d, nil)", n, err, len(out))
		}
		for i := range sinks {
			read(i, batchSize*(1+i/4))
		}
	}
	op() // warms the pools and the flush scratch
	deadline(10 * time.Minute)
	return e, op
}

// BenchmarkFanoutBatchSend times one fan-out reader batch end to end over
// loopback (see fanoutBatchSend) and reports the process's CPU time (client,
// engine and sinks, from getrusage) per source datagram, the engine's flushes
// per batch and the datagrams per kernel send entry.
func BenchmarkFanoutBatchSend(b *testing.B) {
	if !gsoAvailable {
		b.Skip("UDP GSO and GRO not available in this build")
	}
	e, op := fanoutBatchSend(b)
	before := e.Stats()
	b.ReportAllocs()
	var r0, r1 syscall.Rusage
	b.ResetTimer()
	syscall.Getrusage(syscall.RUSAGE_SELF, &r0)
	for i := 0; i < b.N; i++ {
		op()
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &r1)
	b.StopTimer()
	cpu := r1.Utime.Nano() + r1.Stime.Nano() - r0.Utime.Nano() - r0.Stime.Nano()
	b.ReportMetric(float64(cpu)/float64(b.N*batchSize), "cpu-ns/datagram")
	st := e.Stats()
	b.ReportMetric(float64(st.WriteFlushes-before.WriteFlushes)/float64(b.N), "flushes/batch")
	if entries := st.SendEntries - before.SendEntries; entries > 0 {
		b.ReportMetric(float64(st.SentDatagrams-before.SentDatagrams)/float64(entries), "dgrams/entry")
	}
}
