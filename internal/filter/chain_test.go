package filter

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"rapidware/internal/packet"
)

// listSource is a Source handing the chain one buffer per entry of bufs,
// pausing after each so the stream is still live while tests splice. With
// hold set it keeps the stream open after the last buffer until Close.
type listSource struct {
	bufs   [][]byte
	pause  time.Duration
	hold   bool
	next   int
	closed chan struct{}
	once   sync.Once
}

func newListSource(bufs [][]byte) *listSource {
	return &listSource{bufs: bufs, pause: 50 * time.Microsecond, closed: make(chan struct{})}
}

// chunks cuts payload into n-byte buffers.
func chunks(payload []byte, n int) [][]byte {
	var out [][]byte
	for off := 0; off < len(payload); off += n {
		out = append(out, payload[off:min(off+n, len(payload))])
	}
	return out
}

func (s *listSource) Name() string { return "src" }

func (s *listSource) ReadFrame() (*packet.Buf, error) {
	if s.next == len(s.bufs) {
		if s.hold {
			<-s.closed
		}
		return nil, io.EOF
	}
	b := packet.GetBuf(len(s.bufs[s.next]))
	copy(b.B, s.bufs[s.next])
	s.next++
	time.Sleep(s.pause)
	return b, nil
}

func (s *listSource) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// collectSink is a Sink gathering everything the chain delivers.
type collectSink struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	frames int
	closed bool
}

func (s *collectSink) Name() string { return "sink" }

func (s *collectSink) WriteFrame(b *packet.Buf) error {
	s.mu.Lock()
	s.buf.Write(b.B)
	s.frames++
	s.mu.Unlock()
	b.Release()
	return nil
}

func (s *collectSink) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

func (s *collectSink) bytesCopy() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

func (s *collectSink) waitFor(t *testing.T, want int) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b := s.bytesCopy(); len(b) >= want {
			return b
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("sink received %d bytes, want %d", len(s.bytesCopy()), want)
	return nil
}

// startChain assembles src, the interior and sink into a started chain that
// the test stops.
func startChain(t *testing.T, src Source, sink Sink, interior ...Filter) *Chain {
	t.Helper()
	c := NewChain("test")
	stages := []Stage{src}
	for _, f := range interior {
		stages = append(stages, f)
	}
	for _, s := range append(stages, sink) {
		if err := c.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop() })
	return c
}

func TestChainAppendStartStop(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 500)
	c := NewChain("test")
	sink := &collectSink{}
	for _, s := range []Stage{newListSource(chunks(payload, 128)), NewNull("mid"), sink} {
		if err := c.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Names(); len(got) != 3 || got[0] != "src" || got[1] != "mid" || got[2] != "sink" {
		t.Fatalf("Names = %v", got)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("second Start err = %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := sink.bytesCopy(); !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through chain")
	}
	if !sink.closed {
		t.Fatal("the end of the stream did not close the sink")
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("second Stop err = %v", err)
	}
}

func TestChainAccessors(t *testing.T) {
	c := NewChain("accessors")
	if c.Name() != "accessors" {
		t.Fatalf("Name = %q", c.Name())
	}
	if got := c.Names(); len(got) != 0 {
		t.Fatalf("Names of an empty chain = %v", got)
	}
	c.Append(newListSource(nil))
	c.Append(NewNull("a"))
	c.Append(NewNull("b"))
	c.Append(&collectSink{})
	if got := c.Names(); len(got) != 4 || got[1] != "a" || got[2] != "b" {
		t.Fatalf("Names = %v", got)
	}
}

// TestChainAppendRejectsMisplacedStages: a chain starts with a source and
// ends in one sink, and its endpoints are fixed once it starts.
func TestChainAppendRejectsMisplacedStages(t *testing.T) {
	c := NewChain("order")
	if err := c.Append(NewNull("a")); err == nil {
		t.Fatal("a chain accepted a filter before its source")
	}
	if err := c.Append(newListSource(nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); !errors.Is(err, ErrChainTooShort) {
		t.Fatalf("Start without a sink = %v, want ErrChainTooShort", err)
	}
	if err := c.Append(&collectSink{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(&collectSink{}); err == nil {
		t.Fatal("a chain accepted a second sink")
	}
	if err := c.Append(NewNull("late")); err != nil {
		t.Fatal(err)
	}
	if got := c.Names(); len(got) != 3 || got[1] != "late" || got[2] != "sink" {
		t.Fatalf("a filter appended after the sink did not join ahead of it: %v", got)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Append(&collectSink{}); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("Append after Start = %v, want ErrAlreadyStarted", err)
	}
}

// TestChainAppendAfterStartStartsFilter: a filter appended to a running chain
// joins the end of its interior at once and carries the rest of the stream.
func TestChainAppendAfterStartStartsFilter(t *testing.T) {
	src := newListSource(nil)
	src.hold = true
	sink := &collectSink{}
	c := startChain(t, src, sink, NewNull("a"))
	late := NewCounting("late-filter")
	if err := c.Append(late); err != nil {
		t.Fatal(err)
	}
	if !late.Running() {
		t.Fatal("filter appended to a started chain was not started")
	}
	if got := c.Names(); len(got) != 4 || got[1] != "a" || got[2] != "late-filter" {
		t.Fatalf("Names after a late Append = %v", got)
	}
	b := packet.GetBuf(5)
	copy(b.B, "frame")
	if err := c.frames.Process(b); err != nil {
		t.Fatal(err)
	}
	if late.Bytes() != 5 || string(sink.bytesCopy()) != "frame" {
		t.Fatalf("the late filter counted %d bytes; the sink got %q", late.Bytes(), sink.bytesCopy())
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestChainAppendConnectFailure: a filter another chain already runs cannot be
// appended, and the refused Append leaves the chain as it was.
func TestChainAppendConnectFailure(t *testing.T) {
	c := NewChain("connect-fail")
	a, b := NewNull("a"), NewNull("b")
	other := NewFrameChain((*packet.Buf).Release)
	if err := other.SetInterior([]Filter{b}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Stage{newListSource(nil), a} {
		if err := c.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Append(b); err == nil {
		t.Fatal("expected Append to fail when the filter is already wired")
	}
	if got := c.Names(); len(got) != 2 || got[1] != "a" {
		t.Fatalf("chain changed by a refused Append: %v", got)
	}
}

// TestSetInteriorReplacesInteriorAtomically swaps the whole interior of a
// running chain mid-stream and verifies no byte is lost or reordered.
func TestSetInteriorReplacesInteriorAtomically(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	sink := &collectSink{}
	first := NewCounting("first")
	c := startChain(t, newListSource(chunks(payload, 512)), sink, first)

	// Let some data flow through the original interior, then swap it for a
	// two-stage interior that keeps the counting filter instance.
	sink.waitFor(t, 1024)
	second := NewChecksum("second")
	if err := c.SetInterior([]Filter{second, first}); err != nil {
		t.Fatalf("SetInterior: %v", err)
	}
	if got := c.Names(); len(got) != 4 || got[1] != "second" || got[2] != "first" {
		t.Fatalf("Names after SetInterior = %v", got)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := sink.bytesCopy(); !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted across SetInterior: got %d bytes, want %d", len(got), len(payload))
	}
	if first.Bytes() != uint64(len(payload)) {
		t.Fatalf("kept stage lost its state or missed traffic: counted %d of %d", first.Bytes(), len(payload))
	}
	in, out := first.IOBytes()
	if in != uint64(len(payload)) || out != uint64(len(payload)) {
		t.Fatalf("per-stage IO counters = %d in / %d out, want %d", in, out, len(payload))
	}
}

// TestSetInteriorStopsRemovedStartsAdded checks the stages on both sides of
// the swap.
func TestSetInteriorStopsRemovedStartsAdded(t *testing.T) {
	sink := &collectSink{}
	oldStage := NewNull("old")
	c := startChain(t, newListSource(chunks(bytes.Repeat([]byte("x"), 1<<16), 1024)), sink, oldStage)
	sink.waitFor(t, 1)

	added := NewNull("new")
	if err := c.SetInterior([]Filter{added}); err != nil {
		t.Fatalf("SetInterior: %v", err)
	}
	if oldStage.Running() {
		t.Fatal("removed stage still running")
	}
	if !added.Running() {
		t.Fatal("added stage not running")
	}
	// An emptied interior connects the endpoints directly.
	if err := c.SetInterior(nil); err != nil {
		t.Fatalf("SetInterior(nil): %v", err)
	}
	if added.Running() {
		t.Fatal("stage removed by the second swap still running")
	}
	sink.waitFor(t, 1<<16)
}

// TestSetInteriorBeforeStart wires an unstarted chain; Start then runs the
// stream through the whole composition.
func TestSetInteriorBeforeStart(t *testing.T) {
	payload := []byte("hello, composition plane")
	sink := &collectSink{}
	c := NewChain("prestart")
	if err := c.Append(newListSource(chunks(payload, 8))); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(sink); err != nil {
		t.Fatal(err)
	}
	mid := NewCounting("mid")
	if err := c.SetInterior([]Filter{mid}); err != nil {
		t.Fatalf("SetInterior before Start: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := sink.bytesCopy(); !bytes.Equal(got, payload) || mid.Chunks() != 3 {
		t.Fatalf("payload %q through %d chunks", got, mid.Chunks())
	}
}

func TestSetInteriorRejectsBadTargets(t *testing.T) {
	c := NewChain("bad")
	dup := NewNull("dup")
	if err := c.SetInterior([]Filter{dup, dup}); err == nil {
		t.Fatal("SetInterior accepted a duplicated stage")
	}
	if err := c.SetInterior([]Filter{nil}); err == nil {
		t.Fatal("SetInterior accepted a nil stage")
	}
	// After the stream ends nothing can be spliced into it.
	ended := startChain(t, newListSource(nil), &collectSink{})
	if err := ended.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := ended.SetInterior([]Filter{NewNull("late")}); !errors.Is(err, ErrFrameChainClosed) {
		t.Fatalf("SetInterior after the stream ended = %v, want ErrFrameChainClosed", err)
	}
}

// TestSetInteriorUnderSustainedTraffic hammers the swap while data flows,
// alternating between interiors that share one instance.
func TestSetInteriorUnderSustainedTraffic(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 1<<20)
	sink := &collectSink{}
	keep := NewCounting("keep")
	c := startChain(t, newListSource(chunks(payload, 2048)), sink, keep)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			interior := []Filter{keep}
			if i%2 == 0 {
				interior = []Filter{NewNull("extra"), keep}
			}
			if err := c.SetInterior(interior); err != nil && !errors.Is(err, ErrFrameChainClosed) {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	got := sink.waitFor(t, len(payload))
	<-done
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted under sustained swaps: %d bytes", len(got))
	}
}

// TestSetInteriorPreflightRejectsUnusableStages verifies that a stage another
// chain holds is rejected before the interior is touched.
func TestSetInteriorPreflightRejectsUnusableStages(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 1<<16)
	sink := &collectSink{}
	keep := NewNull("keep")
	c := startChain(t, newListSource(chunks(payload, 1024)), sink, keep)
	sink.waitFor(t, 1)

	foreign := NewNull("foreign")
	other := NewFrameChain((*packet.Buf).Release)
	if err := other.SetInterior([]Filter{foreign}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetInterior([]Filter{foreign}); err == nil {
		t.Fatal("a stage running in another chain was accepted")
	}
	if got := c.Names(); len(got) != 3 || got[1] != "keep" {
		t.Fatalf("chain changed by a rejected splice: %v", got)
	}
	sink.waitFor(t, len(payload))

	// A stage its chain retired is free to join another.
	if err := other.SetInterior(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.SetInterior([]Filter{foreign}); err != nil && !errors.Is(err, ErrFrameChainClosed) {
		t.Fatalf("retired stage refused: %v", err)
	}
}
