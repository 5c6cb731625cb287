//go:build linux

package engine

import (
	"net"
	"syscall"
	"testing"
	"time"

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
