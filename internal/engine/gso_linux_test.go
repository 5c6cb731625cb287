//go:build linux

package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"syscall"
	"testing"
	"time"

	"rapidware/internal/fec"
	"rapidware/internal/metrics"
	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
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
		sh.push(&sh.tq, outbound{s: s, b: b, view: &view})
	})
	sh.sendQueue(&sh.tq)
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
		if !sh.push(&sh.tq, o) {
			t.Fatal("queue refused an entry")
		}
		entries++
	}
	if entries != flushSize {
		t.Fatalf("queued %d entries, want one flush of %d", entries, flushSize)
	}
	sh.sendQueue(&sh.tq)
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
