package filter

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/packet"
)

// testFrame marshals a data frame with the given sequence number into a
// pooled frame buffer.
func testFrame(t testing.TB, seq uint64, payload string) *packet.Buf {
	t.Helper()
	p := &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte(payload)}
	b := packet.GetFrameBuf(packet.HeaderSize + len(payload))
	frame, err := packet.AppendFrame(b.B[:0], p)
	if err != nil {
		t.Fatal(err)
	}
	b.B = frame
	return b
}

// frameLog is a FrameChain sink recording the sequence numbers it is handed.
type frameLog struct {
	mu   sync.Mutex
	seqs []uint64
}

func (l *frameLog) sink(b *packet.Buf) {
	p, _, err := packet.Unmarshal(b.B)
	if err != nil {
		panic(err)
	}
	l.mu.Lock()
	l.seqs = append(l.seqs, p.Seq)
	l.mu.Unlock()
	b.Release()
}

func (l *frameLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprint(l.seqs)
}

// holdStage retains every frame until it holds n, then emits them all — a
// stand-in for an FEC encoder's open group — and flushes what it holds.
func holdStage(name string, n int) *Base {
	var held []*packet.Buf
	flush := func(emit func(*packet.Buf)) error {
		for _, b := range held {
			emit(b)
		}
		held = held[:0]
		return nil
	}
	return NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		held = append(held, b)
		if len(held) == n {
			return flush(emit)
		}
		return nil
	}, flush)
}

func TestFrameChainRunsToCompletionInOrder(t *testing.T) {
	var log frameLog
	fc := NewFrameChain(log.sink)
	// An empty chain is a straight path to the sink.
	if err := fc.Process(testFrame(t, 0, "a")); err != nil {
		t.Fatal(err)
	}
	counting, checksum := NewCounting("c"), NewChecksum("k")
	if err := fc.SetInterior([]Filter{counting, NewNull("n"), checksum}); err != nil {
		t.Fatal(err)
	}
	if !counting.Running() {
		t.Fatal("a stage running inline does not report Running")
	}
	total := 0
	for seq := uint64(1); seq <= 5; seq++ {
		b := testFrame(t, seq, "payload")
		total += len(b.B)
		if err := fc.Process(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := log.String(); got != "[0 1 2 3 4 5]" {
		t.Fatalf("sink saw %s", got)
	}
	if counting.Chunks() != 5 || counting.Bytes() != uint64(total) {
		t.Fatalf("counting saw %d frames / %d bytes, want 5 / %d", counting.Chunks(), counting.Bytes(), total)
	}
	if in, out := checksum.IOBytes(); in != uint64(total) || out != uint64(total) {
		t.Fatalf("per-stage IO counters = %d in / %d out, want %d", in, out, total)
	}
	if got := len(fc.Filters()); got != 3 {
		t.Fatalf("Filters() = %d stages, want 3", got)
	}
}

// TestFrameChainSpliceFlushesLeavers pins SetInterior's contract: a stage
// leaving the plan is flushed through the stages that were downstream of it,
// kept stages keep their state, and the swap lands between two frames.
func TestFrameChainSpliceFlushesLeavers(t *testing.T) {
	var log frameLog
	fc := NewFrameChain(log.sink)
	hold, after := holdStage("hold", 4), NewCounting("after")
	if err := fc.SetInterior([]Filter{hold, after}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := fc.Process(testFrame(t, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if after.Chunks() != 0 {
		t.Fatal("hold stage leaked frames before its group filled")
	}
	before := NewCounting("before")
	if err := fc.SetInterior([]Filter{before, after}); err != nil {
		t.Fatal(err)
	}
	if hold.Running() {
		t.Fatal("a retired stage still reports Running")
	}
	if after.Chunks() != 2 || log.String() != "[1 2]" {
		t.Fatalf("leaver's frames: downstream stage saw %d, sink saw %s; want both flushed through", after.Chunks(), log.String())
	}
	if before.Chunks() != 0 {
		t.Fatal("a leaver's flush ran through a stage that was never downstream of it")
	}
	if err := fc.Process(testFrame(t, 3, "x")); err != nil {
		t.Fatal(err)
	}
	if before.Chunks() != 1 || after.Chunks() != 3 || log.String() != "[1 2 3]" {
		t.Fatalf("after splice: before=%d after=%d sink=%s", before.Chunks(), after.Chunks(), log.String())
	}
	// Close flushes upstream first, through everything downstream.
	tail := holdStage("tail", 100)
	if err := fc.SetInterior([]Filter{holdStage("head", 100), after, tail}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(4); seq <= 5; seq++ {
		if err := fc.Process(testFrame(t, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	if after.Chunks() != 5 || log.String() != "[1 2 3 4 5]" {
		t.Fatalf("after close: downstream=%d sink=%s", after.Chunks(), log.String())
	}
	if err := fc.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	b := testFrame(t, 6, "x")
	if err := fc.Process(b); !errors.Is(err, ErrFrameChainClosed) {
		t.Fatalf("Process on a closed chain = %v", err)
	}
	b.Release() // a closed chain does not take ownership
	if err := fc.SetInterior(nil); !errors.Is(err, ErrFrameChainClosed) {
		t.Fatalf("SetInterior on a closed chain = %v", err)
	}
}

func TestFrameChainRejectsStagesItCannotRun(t *testing.T) {
	var log frameLog
	fc := NewFrameChain(log.sink)
	keep := NewCounting("keep")
	if err := fc.SetInterior([]Filter{keep}); err != nil {
		t.Fatal(err)
	}
	streamOnly := NewTransform("transform", func(b []byte) []byte { return b })
	if HasFrameForm(streamOnly) || !HasFrameForm(keep) || !HasFrameForm(NewDelay("delay", 0)) {
		t.Fatal("HasFrameForm misreports the built-ins")
	}
	if err := fc.SetInterior([]Filter{keep, streamOnly}); !errors.Is(err, ErrNoFrameForm) {
		t.Fatalf("stream-only stage: %v, want ErrNoFrameForm", err)
	}
	if err := fc.SetInterior([]Filter{keep, keep}); err == nil {
		t.Fatal("a stage was accepted twice")
	}
	other := NewFrameChain(log.sink)
	if err := other.SetInterior([]Filter{keep}); err == nil {
		t.Fatal("a stage running in one chain was accepted by another")
	}
	// None of the rejected splices touched the chain.
	if err := fc.Process(testFrame(t, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if keep.Chunks() != 1 || len(fc.Filters()) != 1 {
		t.Fatalf("rejected splice disturbed the chain: %d stages, %d frames", len(fc.Filters()), keep.Chunks())
	}
}

// TestFrameChainStageErrorFailsChain: a stage error drops the frame in
// flight, closes the chain without flushing, and sticks.
func TestFrameChainStageErrorFailsChain(t *testing.T) {
	var log frameLog
	fc := NewFrameChain(log.sink)
	boom := errors.New("boom")
	hold := holdStage("hold", 100)
	failing := NewFrame("failing", func(b *packet.Buf, emit func(*packet.Buf)) error {
		p, _, _ := packet.Unmarshal(b.B)
		if p.Seq == 2 {
			b.Release()
			return boom
		}
		emit(b)
		return nil
	}, nil)
	if err := fc.SetInterior([]Filter{failing, hold}); err != nil {
		t.Fatal(err)
	}
	if err := fc.Process(testFrame(t, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := fc.Process(testFrame(t, 2, "x")); !errors.Is(err, boom) {
		t.Fatalf("Process = %v, want the stage's error", err)
	}
	if !errors.Is(fc.Err(), boom) || fc.Enter() {
		t.Fatal("a failed chain stayed open")
	}
	if failing.Running() || hold.Running() {
		t.Fatal("a failed chain's stages still report Running")
	}
	if err := fc.Close(); err != nil || log.String() != "[]" {
		t.Fatalf("closing a failed chain flushed its stages: err=%v sink=%s", err, log.String())
	}
}

// TestFrameChainDropsBadFrames: a stage rejecting a frame with ErrBadFrame
// drops and counts it; the chain stays open and the next frame goes through.
func TestFrameChainDropsBadFrames(t *testing.T) {
	var log frameLog
	fc := NewFrameChain(log.sink)
	picky := NewFrame("picky", func(b *packet.Buf, emit func(*packet.Buf)) error {
		if packet.FrameSeq(b.B) == 2 {
			b.Release()
			return fmt.Errorf("picky: %w", ErrBadFrame)
		}
		emit(b)
		return nil
	}, nil)
	var drops atomic.Int32
	picky.OnDrop(func() { drops.Add(1) })
	if err := fc.SetInterior([]Filter{picky}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := fc.Process(testFrame(t, seq, "x")); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}
	if log.String() != "[1 3]" || drops.Load() != 1 || fc.Err() != nil {
		t.Fatalf("sink %s, drops %d, err %v; want [1 3], 1, nil", log.String(), drops.Load(), fc.Err())
	}
}

// fakeClock is a timed stage's clock that moves only when told to.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }
func (l *frameLog) wait(t *testing.T, want string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for l.String() != want {
		if time.Now().After(deadline) {
			t.Fatalf("sink saw %s, want %s", l.String(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// timedChain returns a chain of a delay stage on a fake clock feeding a
// counting stage, and the clock.
func timedChain(t *testing.T, log *frameLog, d time.Duration) (*FrameChain, *Base, *fakeClock) {
	t.Helper()
	clock := &fakeClock{}
	delay := NewDelay("delay", d)
	delay.SetClock(clock.now)
	fc := NewFrameChain(log.sink)
	if err := fc.SetInterior([]Filter{delay, NewCounting("after")}); err != nil {
		t.Fatal(err)
	}
	return fc, delay, clock
}

// TestFrameChainTimerReleasesInOrder: a timed stage holds frames until they
// fall due, and the chain's timer releases them, in order, through what is
// downstream of the stage.
func TestFrameChainTimerReleasesInOrder(t *testing.T) {
	var log frameLog
	fc, _, clock := timedChain(t, &log, 5*time.Millisecond)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := fc.Process(testFrame(t, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}
	clock.advance(2 * time.Millisecond)
	for seq := uint64(4); seq <= 5; seq++ {
		if err := fc.Process(testFrame(t, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(15 * time.Millisecond) // the timer fires, but nothing is due yet
	if got := log.String(); got != "[]" {
		t.Fatalf("released %s before anything fell due", got)
	}
	clock.advance(3 * time.Millisecond)
	log.wait(t, "[1 2 3]")
	clock.advance(2 * time.Millisecond)
	log.wait(t, "[1 2 3 4 5]")
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameChainSpliceOutFlushesHeldFrames: a timed stage spliced out of a
// live chain gives up what it holds, through the wiring it leaves.
func TestFrameChainSpliceOutFlushesHeldFrames(t *testing.T) {
	var log frameLog
	fc, _, _ := timedChain(t, &log, time.Hour)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := fc.Process(testFrame(t, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}
	after := fc.Filters()[1]
	if err := fc.SetInterior([]Filter{after}); err != nil {
		t.Fatal(err)
	}
	if got := log.String(); got != "[1 2 3]" {
		t.Fatalf("splice-out flushed %s, want [1 2 3]", got)
	}
	if err := fc.Process(testFrame(t, 4, "x")); err != nil || log.String() != "[1 2 3 4]" {
		t.Fatalf("after the splice: %v, sink %s", err, log.String())
	}
}

// TestFrameChainCloseWithTimerArmed: Close flushes what a timed stage holds
// and disarms the timer; nothing reaches the sink afterwards. Run under -race.
func TestFrameChainCloseWithTimerArmed(t *testing.T) {
	var log frameLog
	fc, _, clock := timedChain(t, &log, time.Millisecond)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := fc.Process(testFrame(t, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := log.String(); got != "[1 2 3]" {
		t.Fatalf("Close flushed %s, want [1 2 3]", got)
	}
	clock.advance(time.Hour)
	time.Sleep(10 * time.Millisecond)
	if got := log.String(); got != "[1 2 3]" {
		t.Fatalf("the sink saw %s after Close", got)
	}
}

// TestFrameChainFlush: Flush empties every stage through the current wiring,
// upstream first, and leaves the chain open.
func TestFrameChainFlush(t *testing.T) {
	var log frameLog
	clock := &fakeClock{}
	delay := NewDelay("delay", time.Hour)
	delay.SetClock(clock.now)
	fc := NewFrameChain(log.sink)
	if err := fc.SetInterior([]Filter{delay, holdStage("hold", 100)}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := fc.Process(testFrame(t, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := log.String(); got != "[1 2 3]" {
		t.Fatalf("Flush emitted %s, want [1 2 3]", got)
	}
	if err := fc.Process(testFrame(t, 4, "x")); err != nil || len(fc.Filters()) != 2 {
		t.Fatalf("chain after Flush: %v, %d stages", err, len(fc.Filters()))
	}
	if err := fc.Close(); err != nil || log.String() != "[1 2 3 4]" {
		t.Fatalf("Close: %v, sink %s", err, log.String())
	}
}

// TestRateLimitFramePacing: the frame form lets a refill tick's worth of
// bytes through at once, then holds frames and releases them at the rate.
func TestRateLimitFramePacing(t *testing.T) {
	var log frameLog
	clock := &fakeClock{}
	size := len(testFrame(t, 0, "x").B)
	rl := NewRateLimit("rl", size*100) // one frame per 10ms: one frame of burst
	rl.SetClock(clock.now)
	fc := NewFrameChain(log.sink)
	if err := fc.SetInterior([]Filter{rl}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := fc.Process(testFrame(t, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := log.String(); got != "[1 2]" {
		t.Fatalf("burst let %s through, want [1 2]", got)
	}
	clock.advance(10 * time.Millisecond)
	log.wait(t, "[1 2 3]")
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameChainConcurrentFeedersAndSplices feeds one chain from several
// goroutines while another splices it: every frame must come out exactly
// once, and each feeder's frames in the order it sent them. Run under -race.
func TestFrameChainConcurrentFeedersAndSplices(t *testing.T) {
	const feeders, perFeeder = 4, 2000
	var log frameLog
	fc := NewFrameChain(log.sink)
	keep := NewCounting("keep")
	if err := fc.SetInterior([]Filter{keep}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < perFeeder; i++ {
				if err := fc.Process(testFrame(t, uint64(f*perFeeder+i), "x")); err != nil {
					t.Error(err)
					return
				}
			}
		}(f)
	}
	stop := make(chan struct{})
	spliced := make(chan struct{})
	go func() {
		defer close(spliced)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			interior := []Filter{keep}
			if i%2 == 0 {
				interior = []Filter{holdStage("hold", 3), keep, NewNull("n")}
			}
			if err := fc.SetInterior(interior); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-spliced
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	if keep.Chunks() != feeders*perFeeder {
		t.Fatalf("kept stage saw %d frames, want %d", keep.Chunks(), feeders*perFeeder)
	}
	last := make([]int64, feeders)
	for i := range last {
		last[i] = -1
	}
	if len(log.seqs) != feeders*perFeeder {
		t.Fatalf("sink saw %d frames, want %d", len(log.seqs), feeders*perFeeder)
	}
	for _, seq := range log.seqs {
		f, i := int(seq)/perFeeder, int64(seq)%perFeeder
		if i <= last[f] {
			t.Fatalf("feeder %d: frame %d after %d (duplicate or reordered)", f, i, last[f])
		}
		last[f] = i
	}
}

// TestFrameStageMovesBetweenExecutors runs one stage instance inline, then in
// a goroutine chain through the stream driver derived from its frame form,
// then inline again: its state carries both ways.
func TestFrameStageMovesBetweenExecutors(t *testing.T) {
	counting := NewCounting("c")
	hold := holdStage("hold", 2)
	var log frameLog
	inline := func(seqs ...uint64) {
		t.Helper()
		fc := NewFrameChain(log.sink)
		if err := fc.SetInterior([]Filter{hold, counting}); err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if err := fc.Process(testFrame(t, seq, "x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := fc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	viaStream := func(seqs ...uint64) {
		t.Helper()
		var stream bytes.Buffer
		for _, seq := range seqs {
			b := testFrame(t, seq, "x")
			stream.Write(b.B)
			b.Release()
		}
		sink := newSink("sink")
		c := NewChain("t")
		for _, f := range []Filter{sourceFilter("src", stream.Bytes(), 7), hold, counting, sink} {
			if err := c.Append(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		// The source ends the stream; EOF flushes the hold stage.
		sink.Wait()
		for _, f := range splitTestFrames(t, sink.bytesCopy()) {
			log.seqs = append(log.seqs, f)
		}
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	inline(1, 2, 3)
	viaStream(4, 5, 6)
	inline(7, 8)
	if got := log.String(); got != "[1 2 3 4 5 6 7 8]" {
		t.Fatalf("frames across executors = %s", got)
	}
	if want := uint64(8 * (packet.HeaderSize + 1)); counting.Bytes() != want {
		t.Fatalf("counting stage lost state across executors: %d bytes, want %d", counting.Bytes(), want)
	}
}

// splitTestFrames returns the sequence numbers of the frames in a byte
// stream.
func splitTestFrames(t *testing.T, stream []byte) []uint64 {
	t.Helper()
	var seqs []uint64
	for len(stream) > 0 {
		p, n, err := packet.Unmarshal(stream)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, p.Seq)
		stream = stream[n:]
	}
	return seqs
}
