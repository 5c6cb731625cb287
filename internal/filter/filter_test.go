package filter

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"rapidware/internal/packet"
)

// runThrough pushes input through a chain holding only f, as a raw stream of
// 1 KiB buffers, and returns what reached the sink.
func runThrough(t *testing.T, f Filter, input []byte) []byte {
	t.Helper()
	sink := &collectSink{}
	c := startChain(t, newListSource(chunks(input, 1024)), sink, f)
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	return sink.bytesCopy()
}

func TestBaseLifecycle(t *testing.T) {
	f := NewNull("ident")
	if f.Name() != "ident" {
		t.Fatalf("Name = %q", f.Name())
	}
	if f.Running() {
		t.Fatal("filter running before any chain holds it")
	}
	fc := NewFrameChain((*packet.Buf).Release)
	if err := fc.SetInterior([]Filter{f}); err != nil {
		t.Fatal(err)
	}
	if !f.Running() {
		t.Fatal("filter not running inside a chain")
	}
	if err := fc.SetInterior(nil); err != nil {
		t.Fatal(err)
	}
	if f.Running() {
		t.Fatal("filter still running after its chain retired it")
	}
}

// TestBasePropagatesProcessError: a stage error ends the stream with that
// error; nothing after the failing frame reaches the sink, and the sink is
// still closed.
func TestBasePropagatesProcessError(t *testing.T) {
	boom := errors.New("boom")
	failing := NewFrame("failing", func(b *packet.Buf, emit func(*packet.Buf)) error {
		if b.B[0] == '2' {
			b.Release()
			return boom
		}
		emit(b)
		return nil
	}, nil)
	sink := &collectSink{}
	c := startChain(t, newListSource([][]byte{[]byte("1"), []byte("2"), []byte("3")}), sink, failing)
	if err := c.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want the stage's error", err)
	}
	if got := string(sink.bytesCopy()); got != "1" || !sink.closed {
		t.Fatalf("sink got %q (closed %v), want only the frame before the failure", got, sink.closed)
	}
}

func TestNullFilterPassesDataUnchanged(t *testing.T) {
	payload := bytes.Repeat([]byte("rapidware "), 1000)
	got := runThrough(t, NewNull(""), payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("null filter modified data: got %d bytes want %d", len(got), len(payload))
	}
}

func TestCountingFilter(t *testing.T) {
	cf := NewCounting("")
	payload := make([]byte, 10_000)
	got := runThrough(t, cf, payload)
	if len(got) != len(payload) {
		t.Fatalf("forwarded %d bytes, want %d", len(got), len(payload))
	}
	if cf.Bytes() != uint64(len(payload)) {
		t.Fatalf("Bytes() = %d, want %d", cf.Bytes(), len(payload))
	}
	if cf.Chunks() != 10 {
		t.Fatalf("Chunks() = %d, want one per 1 KiB buffer", cf.Chunks())
	}
}

func TestChecksumFilter(t *testing.T) {
	cf := NewChecksum("")
	payload := []byte("integrity is preserved end to end")
	got := runThrough(t, cf, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("checksum filter modified data")
	}
	crc, n := cf.Sum()
	if n != uint64(len(payload)) {
		t.Fatalf("byte count = %d, want %d", n, len(payload))
	}
	if crc == 0 {
		t.Fatal("crc = 0, want non-zero")
	}
}

// TestDelayFilterAddsLatency: the stream ends right after its one frame, and
// the frame still leaves on the chain's timer, not on the closing flush.
func TestDelayFilterAddsLatency(t *testing.T) {
	f := NewDelay("", 30*time.Millisecond)
	start := time.Now()
	got := runThrough(t, f, []byte("x"))
	if len(got) != 1 {
		t.Fatalf("got %d bytes, want 1", len(got))
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("elapsed %v, want at least ~30ms", elapsed)
	}
}

func TestRateLimitShapesThroughput(t *testing.T) {
	// 20 KiB at 100 KiB/s should take roughly 200 ms; allow generous slack
	// but reject an unshaped instant transfer.
	f := NewRateLimit("", 100*1024)
	payload := make([]byte, 20*1024)
	start := time.Now()
	got := runThrough(t, f, payload)
	elapsed := time.Since(start)
	if len(got) != len(payload) {
		t.Fatalf("forwarded %d bytes, want %d", len(got), len(payload))
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("transfer took %v, want >= 100ms of shaping", elapsed)
	}
}

// TestRateLimitPushesBackOnSource: a source far faster than the rate, with
// several times MaxHeld frames, loses none of them — the pump stops reading
// while the stage holds its share — and the stream is shaped to its end.
func TestRateLimitPushesBackOnSource(t *testing.T) {
	const frames, size = 4 * MaxHeld, 64
	f := NewRateLimit("", frames*size*4) // the whole stream in ~250ms
	var drops int
	f.OnDrop(func() { drops++ })
	src := newListSource(chunks(make([]byte, frames*size), size))
	src.pause = 0
	sink := &collectSink{}
	start := time.Now()
	c := startChain(t, src, sink, f)
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if sink.frames != frames || drops != 0 {
		t.Fatalf("the sink got %d of %d frames; the stage dropped %d", sink.frames, frames, drops)
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("the stream ended after %v, want ~250ms of shaping", elapsed)
	}
}

func TestRateLimitDefaultsForInvalidRate(t *testing.T) {
	f := NewRateLimit("slow", -5)
	if f.Name() != "slow" {
		t.Fatalf("Name = %q", f.Name())
	}
}

// TestStopUnblocksFilterBlockedOnRead: Stop closes the source, which wakes a
// pump waiting for the next frame.
func TestStopUnblocksFilterBlockedOnRead(t *testing.T) {
	src := newListSource(nil)
	src.hold = true
	c := NewChain("blocked")
	for _, s := range []Stage{src, NewNull("idle"), &collectSink{}} {
		if err := c.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Stop() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not unblock a pump waiting for input")
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("a stop reported as a stream error: %v", err)
	}
}

// stuckSink is a Sink whose peer stopped reading: WriteFrame blocks until
// Close.
type stuckSink struct {
	closed chan struct{}
	once   sync.Once
}

func (s *stuckSink) Name() string { return "stuck" }

func (s *stuckSink) WriteFrame(b *packet.Buf) error {
	b.Release()
	<-s.closed
	return errors.New("stuck: closed")
}

func (s *stuckSink) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// TestStopClosesSinkUnderBlockedWrite: Stop returns even when the pump is
// stuck in a write the sink never finishes, by closing the sink once the
// grace period is over.
func TestStopClosesSinkUnderBlockedWrite(t *testing.T) {
	src := newListSource([][]byte{[]byte("a"), []byte("b")})
	src.hold = true
	sink := &stuckSink{closed: make(chan struct{})}
	c := NewChain("stuck")
	for _, s := range []Stage{src, NewNull("mid"), sink} {
		if err := c.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // the pump is now blocked writing "a"
	done := make(chan error, 1)
	go func() { done <- c.Stop() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(stopGrace + 2*time.Second):
		t.Fatal("Stop hung on a sink write that never returns")
	}
	if err := c.Wait(); err == nil {
		t.Fatal("the refused write was not reported as the stream's error")
	}
}
