package netbatch

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// pair binds two loopback sockets and wraps each in a batch conn.
func pair(t *testing.T, opts Options) (a, b *net.UDPConn, ba, bb Conn) {
	t.Helper()
	a, b = listen(t, "127.0.0.1:0"), listen(t, "127.0.0.1:0")
	return a, b, New(a, opts), New(b, Options{})
}

// listen binds a UDP socket on addr, skipping the test when addr is IPv6 and
// the host has no IPv6.
func listen(t *testing.T, addr string) *net.UDPConn {
	t.Helper()
	ap := netip.MustParseAddrPort(addr)
	c, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(ap))
	if err != nil {
		if ap.Addr().Is6() {
			t.Skipf("IPv6 unavailable: %v", err)
		}
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// drain reads until want datagrams arrived (in however many batches the
// kernel delivers them) and returns them in arrival order.
func drain(t *testing.T, c *net.UDPConn, bc Conn, want int) []Msg {
	t.Helper()
	var got []Msg
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want {
		ms := make([]Msg, BatchSize)
		for i := range ms {
			ms[i].Buf = make([]byte, 2048)
		}
		c.SetReadDeadline(deadline)
		n, err := bc.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch after %d of %d: %v", len(got), want, err)
		}
		got = append(got, ms[:n]...)
	}
	return got
}

func TestBatchRoundTrip(t *testing.T) {
	var recvCalls, sendCalls atomic.Uint64
	a, b, ba, bb := pair(t, Options{RecvCalls: &recvCalls, SendCalls: &sendCalls})
	_ = bb
	dst := b.LocalAddr().(*net.UDPAddr).AddrPort()

	// Mixed sizes, so no two adjacent datagrams could be silently merged.
	const count = 12
	var ms []Msg
	for i := 0; i < count; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 16+i*13)
		ms = append(ms, Msg{Buf: payload, Addr: dst})
	}
	sent := 0
	for sent < len(ms) {
		n, err := ba.WriteBatch(ms[sent:])
		if err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		if n == 0 {
			t.Fatal("WriteBatch made no progress")
		}
		sent += n
	}

	got := drain(t, b, New(b, Options{RecvCalls: &recvCalls}), count)
	from := a.LocalAddr().(*net.UDPAddr).AddrPort()
	for i, m := range got {
		if m.N != 16+i*13 {
			t.Fatalf("datagram %d: got %d bytes, want %d", i, m.N, 16+i*13)
		}
		if !bytes.Equal(m.Buf[:m.N], bytes.Repeat([]byte{byte(i + 1)}, m.N)) {
			t.Fatalf("datagram %d corrupted", i)
		}
		if netip.AddrPortFrom(m.Addr.Addr().Unmap(), m.Addr.Port()) != netip.AddrPortFrom(from.Addr().Unmap(), from.Port()) {
			t.Fatalf("datagram %d: from %v, want %v", i, m.Addr, from)
		}
	}
	if sendCalls.Load() == 0 || recvCalls.Load() == 0 {
		t.Fatalf("syscall counters never moved: recv %d send %d", recvCalls.Load(), sendCalls.Load())
	}
	if Available && sendCalls.Load() >= count {
		t.Fatalf("fast path made %d send syscalls for %d datagrams — not batching", sendCalls.Load(), count)
	}
}

func TestWriteBatchInterleavedDestinations(t *testing.T) {
	a, b, ba, bb := pair(t, Options{})
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := New(c, Options{})
	_ = a
	dstB := b.LocalAddr().(*net.UDPAddr).AddrPort()
	dstC := c.LocalAddr().(*net.UDPAddr).AddrPort()

	var ms []Msg
	for i := 0; i < 8; i++ {
		dst := dstB
		if i%2 == 1 {
			dst = dstC
		}
		ms = append(ms, Msg{Buf: []byte(fmt.Sprintf("dgram-%d", i)), Addr: dst})
	}
	sent := 0
	for sent < len(ms) {
		n, err := ba.WriteBatch(ms[sent:])
		if err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		sent += n
	}
	for i, m := range drain(t, b, bb, 4) {
		if want := fmt.Sprintf("dgram-%d", i*2); string(m.Buf[:m.N]) != want {
			t.Fatalf("B datagram %d = %q, want %q", i, m.Buf[:m.N], want)
		}
	}
	for i, m := range drain(t, c, bc, 4) {
		if want := fmt.Sprintf("dgram-%d", i*2+1); string(m.Buf[:m.N]) != want {
			t.Fatalf("C datagram %d = %q, want %q", i, m.Buf[:m.N], want)
		}
	}
}

// TestGSOCoalescedSend sends GSO runs from a v4 socket, and from the
// dual-stack [::] socket rapidproxy's default listen address opens, both to
// an IPv6 destination and to a v4-mapped one.
func TestGSOCoalescedSend(t *testing.T) {
	if !GSOAvailable {
		t.Skip("UDP GSO not available in this build")
	}
	for _, tc := range []struct{ name, from, to string }{
		{"v4", "127.0.0.1:0", "127.0.0.1:0"},
		{"dual-stack to v6", "[::]:0", "[::1]:0"},
		{"dual-stack to v4-mapped", "[::]:0", "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sendCalls, segmented, entries atomic.Uint64
			a, b := listen(t, tc.from), listen(t, tc.to)
			ba, bb := New(a, Options{GSO: true, SendCalls: &sendCalls, Segmented: &segmented, Entries: &entries}), New(b, Options{})
			// As16 spells a v4 destination 4-in-6 mapped, the form a
			// dual-stack socket reports its v4 peers in.
			dst := b.LocalAddr().(*net.UDPAddr).AddrPort()
			if a.LocalAddr().(*net.UDPAddr).IP.To4() == nil {
				dst = netip.AddrPortFrom(netip.AddrFrom16(dst.Addr().As16()), dst.Port())
			}

			// A run of equal-size datagrams to one destination, then a size
			// change (ends the run), then a final run. The receiver must see
			// every datagram at its original boundary.
			payloads := make([][]byte, 0, 24)
			var ms []Msg
			for i := 0; i < 20; i++ {
				p := bytes.Repeat([]byte{byte(i + 1)}, 512)
				payloads = append(payloads, p)
				ms = append(ms, Msg{Buf: p, Addr: dst})
			}
			small := []byte("odd-one-out")
			payloads = append(payloads, small)
			ms = append(ms, Msg{Buf: small, Addr: dst})
			for i := 0; i < 3; i++ {
				p := bytes.Repeat([]byte{0xAA ^ byte(i)}, 256)
				payloads = append(payloads, p)
				ms = append(ms, Msg{Buf: p, Addr: dst})
			}

			sent := 0
			for sent < len(ms) {
				n, err := ba.WriteBatch(ms[sent:])
				if err != nil {
					t.Fatalf("WriteBatch: %v", err)
				}
				if n == 0 {
					t.Fatal("WriteBatch made no progress")
				}
				sent += n
			}
			got := drain(t, b, bb, len(payloads))
			for i, m := range got {
				if !bytes.Equal(m.Buf[:m.N], payloads[i]) {
					t.Fatalf("datagram %d: %d bytes, want %d (segmentation boundary lost)", i, m.N, len(payloads[i]))
				}
			}
			// Both runs (20 + 3 datagrams) went out as GSO entries; a kernel
			// that refused UDP_SEGMENT would have delivered them all the same
			// but left the counter at 0.
			if got := segmented.Load(); got != 23 {
				t.Fatalf("Segmented = %d, want 23: the kernel refused GSO on this socket", got)
			}
			// Three kernel entries: the 20-run, the odd one out, the 3-run.
			if got := entries.Load(); got != 3 {
				t.Fatalf("Entries = %d, want 3 (one per GSO run or plain datagram)", got)
			}
			t.Logf("sent %d datagrams in %d send syscalls", len(payloads), sendCalls.Load())
		})
	}
}

func TestGROCoalescedReceive(t *testing.T) {
	if !Available {
		t.Skip("batched fast path not available in this build")
	}
	a, b, ba, _ := pair(t, Options{GSO: true})
	_ = a
	bb := New(b, Options{GRO: true})
	dst := b.LocalAddr().(*net.UDPAddr).AddrPort()

	// A GSO run of equal-size datagrams over loopback: with the receiver
	// opted into GRO the kernel may deliver them coalesced, in which case Seg
	// must record the cut size so the caller can recover every original
	// datagram; without coalescing (old kernel, GRO refused) they arrive as
	// plain datagrams with Seg == 0. Both deliveries must reassemble to the
	// same payload sequence.
	const count, size = 16, 512
	var ms []Msg
	for i := 0; i < count; i++ {
		ms = append(ms, Msg{Buf: bytes.Repeat([]byte{byte(i + 1)}, size), Addr: dst})
	}
	sent := 0
	for sent < len(ms) {
		n, err := ba.WriteBatch(ms[sent:])
		if err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		if n == 0 {
			t.Fatal("WriteBatch made no progress")
		}
		sent += n
	}

	var payloads [][]byte
	deadline := time.Now().Add(5 * time.Second)
	coalesced := false
	for len(payloads) < count {
		rms := make([]Msg, BatchSize)
		for i := range rms {
			rms[i].Buf = make([]byte, 64<<10)
		}
		b.SetReadDeadline(deadline)
		n, err := bb.ReadBatch(rms)
		if err != nil {
			t.Fatalf("ReadBatch after %d of %d datagrams: %v", len(payloads), count, err)
		}
		for _, m := range rms[:n] {
			if m.Seg <= 0 {
				payloads = append(payloads, append([]byte(nil), m.Buf[:m.N]...))
				continue
			}
			coalesced = true
			for off := 0; off < m.N; off += m.Seg {
				end := min(off+m.Seg, m.N)
				payloads = append(payloads, append([]byte(nil), m.Buf[off:end]...))
			}
		}
	}
	for i, p := range payloads {
		if !bytes.Equal(p, bytes.Repeat([]byte{byte(i + 1)}, size)) {
			t.Fatalf("datagram %d: %d bytes, want %d of %#x (segment boundary lost)", i, len(p), size, byte(i+1))
		}
	}
	t.Logf("received %d datagrams, coalesced delivery observed: %v", count, coalesced)
}

// The parking contract: a ReadBatch with nothing to read waits on the
// netpoller, never in a syscall or a retry loop. The fast path relies on it
// to issue its syscalls raw (see mmsgConn), so these tests run with a single
// P, where a read that spun or slept in the kernel would stall every other
// goroutine.

// oneP runs the rest of the test with GOMAXPROCS(1).
func oneP(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

type readResult struct {
	m   Msg
	n   int
	err error
}

// parkedRead starts a one-slot ReadBatch on bc in its own goroutine and
// returns once it has issued its first receive call; the result arrives on
// the returned channel.
func parkedRead(t *testing.T, bc Conn, recvCalls *atomic.Uint64) <-chan readResult {
	t.Helper()
	done := make(chan readResult, 1)
	go func() {
		ms := []Msg{{Buf: make([]byte, 2048)}}
		n, err := bc.ReadBatch(ms)
		done <- readResult{ms[0], n, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for recvCalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ReadBatch never issued a receive call")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

func TestParkedReadBatchStaysIdle(t *testing.T) {
	oneP(t)
	var recvCalls atomic.Uint64
	b := listen(t, "127.0.0.1:0")
	done := parkedRead(t, New(b, Options{RecvCalls: &recvCalls}), &recvCalls)

	var progress atomic.Uint64
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			progress.Add(1)
			runtime.Gosched()
		}
	}()

	calls, before := recvCalls.Load(), progress.Load()
	time.Sleep(100 * time.Millisecond)
	if got := recvCalls.Load(); got != calls {
		t.Fatalf("idle ReadBatch issued %d more receive calls in 100 ms: it is polling, not parked", got-calls)
	}
	if progress.Load() == before {
		t.Fatal("a sibling goroutine made no progress while ReadBatch waited on one P")
	}
	select {
	case r := <-done:
		t.Fatalf("ReadBatch returned (%d, %v) on an empty socket", r.n, r.err)
	default:
	}
}

func TestParkedReadBatchWakesOnDatagram(t *testing.T) {
	oneP(t)
	var recvCalls atomic.Uint64
	a, b := listen(t, "127.0.0.1:0"), listen(t, "127.0.0.1:0")
	done := parkedRead(t, New(b, Options{RecvCalls: &recvCalls}), &recvCalls)

	time.Sleep(50 * time.Millisecond)
	if _, err := a.WriteToUDPAddrPort([]byte("wake"), b.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || r.n != 1 || string(r.m.Buf[:r.m.N]) != "wake" {
			t.Fatalf("ReadBatch = (%d, %v) with %q, want (1, nil) with \"wake\"", r.n, r.err, r.m.Buf[:r.m.N])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a datagram did not wake the parked ReadBatch")
	}
}

func TestParkedReadBatchReturnsErrClosed(t *testing.T) {
	oneP(t)
	var recvCalls atomic.Uint64
	b := listen(t, "127.0.0.1:0")
	done := parkedRead(t, New(b, Options{RecvCalls: &recvCalls}), &recvCalls)

	time.Sleep(20 * time.Millisecond)
	go b.Close()
	select {
	case r := <-done:
		if !errors.Is(r.err, net.ErrClosed) {
			t.Fatalf("ReadBatch after Close = (%d, %v), want net.ErrClosed", r.n, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unpark the ReadBatch")
	}
}
