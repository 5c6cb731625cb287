//go:build linux

package engine

import (
	"bytes"
	"fmt"
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
		br := netbatch.New(rx, netbatch.Options{GRO: true})
		ms := make([]ioMsg, batchSize)
		var got [][]byte
		for len(got) < len(want) {
			for i := range ms {
				ms[i].Buf = make([]byte, packet.MaxDatagram)
			}
			rx.SetReadDeadline(time.Now().Add(2 * time.Second))
			m, err := br.ReadBatch(ms)
			if err != nil {
				t.Fatalf("receiver %d after %d datagrams: %v", r, len(got), err)
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
		if len(got) != len(want) {
			t.Fatalf("receiver %d got %d datagrams, want %d", r, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("receiver %d: datagram %d is not the %d-th of data-then-parity queue order", r, i, i)
			}
		}

		repairAll(t, fmt.Sprintf("receiver %d", r), got, groups*p.K, groups)
	}
}
