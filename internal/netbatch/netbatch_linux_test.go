//go:build linux && (amd64 || arm64) && !purego

package netbatch

import (
	"bytes"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
)

// TestGSORejectedFallsBackInSameCall makes the kernel refuse UDP_SEGMENT — it
// does, with EINVAL, on a socket whose UDP checksums are off (SO_NO_CHECK) —
// and pins that the refused batch still goes out whole, in order, within the
// same WriteBatch call, and that later calls take the plain path directly.
func TestGSORejectedFallsBackInSameCall(t *testing.T) {
	var sendCalls, segmented, entries atomic.Uint64
	a, b, ba, bb := pair(t, Options{GSO: true, SendCalls: &sendCalls, Segmented: &segmented, Entries: &entries})
	rc, err := a.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var soerr error
	if err := rc.Control(func(fd uintptr) {
		soerr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || soerr != nil {
		t.Fatalf("SO_NO_CHECK: %v %v", err, soerr)
	}
	dst := b.LocalAddr().(*net.UDPAddr).AddrPort()

	const count = 8
	var ms []Msg
	for i := 0; i < count; i++ {
		ms = append(ms, Msg{Buf: bytes.Repeat([]byte{byte(i + 1)}, 256), Addr: dst})
	}
	for call, wantCalls := range []uint64{2, 1} { // refused GSO + plain, then plain only
		before := sendCalls.Load()
		if n, err := ba.WriteBatch(ms); n != count || err != nil {
			t.Fatalf("call %d: WriteBatch = (%d, %v), want (%d, nil)", call, n, err, count)
		}
		if got := sendCalls.Load() - before; got != wantCalls {
			t.Fatalf("call %d: %d send syscalls, want %d", call, got, wantCalls)
		}
		for i, m := range drain(t, b, bb, count) {
			if !bytes.Equal(m.Buf[:m.N], ms[i].Buf) {
				t.Fatalf("call %d: datagram %d arrived as %d bytes of %#x, want 256 of %#x",
					call, i, m.N, m.Buf[0], ms[i].Buf[0])
			}
		}
	}
	if ba.(*mmsgConn).gso.Load() {
		t.Fatal("GSO still on after the kernel refused it")
	}
	if got := segmented.Load(); got != 0 {
		t.Fatalf("Segmented = %d after a refusal, want 0", got)
	}
	// The refused attempt sent nothing, so only the plain entries count.
	if got := entries.Load(); got != 2*count {
		t.Fatalf("Entries = %d after a refusal, want %d (one per plain datagram)", got, 2*count)
	}
}

// TestRawOnlyWhileParking pins when a call skips the scheduler: from a park
// (or the conn's start) until the conn has run rawQuantum without parking
// again. A saturated loop then calls through the scheduler, so sysmon can
// hand its P to timers and netpoll-driven goroutines.
func TestRawOnlyWhileParking(t *testing.T) {
	_, _, ba, _ := pair(t, Options{})
	c := ba.(*mmsgConn)
	q := int64(rawQuantum)
	start := 10 * q
	for _, step := range []struct {
		at   int64
		want bool
	}{{start, true}, {start + q - 1, true}, {start + q, false}, {start + 5*q, false}} {
		if got := c.raw(step.at); got != step.want {
			t.Fatalf("before any park: raw(start%+d) = %v, want %v", step.at-start, got, step.want)
		}
	}

	// An EAGAIN on the empty socket parks the conn; the next call is raw
	// however long the park lasted, and starts a fresh quantum.
	c.rn = 1
	var parked bool
	if err := c.rc.Control(func(fd uintptr) { parked = !c.recvmmsg(fd) }); err != nil || !parked {
		t.Fatalf("recvmmsg on an empty socket: parked %v, err %v", parked, err)
	}
	woke := start + 100*q
	for _, step := range []struct {
		at   int64
		want bool
	}{{woke, true}, {woke + q - 1, true}, {woke + q, false}} {
		if got := c.raw(step.at); got != step.want {
			t.Fatalf("after a park: raw(wake%+d) = %v, want %v", step.at-woke, got, step.want)
		}
	}
}
