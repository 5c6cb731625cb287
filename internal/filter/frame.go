package filter

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"rapidware/internal/packet"
)

// FrameFunc is the frame form of a stage body: it processes one validated
// frame. b.B holds exactly one packet frame and ownership of b passes to the
// stage, which must hand it to emit, keep it as stage state (an FEC encoder's
// open group), or Release it. emit takes ownership of every buffer it is
// given and may be called any number of times, including zero; it is only
// valid for the duration of the call. Stages that originate frames should
// allocate them with packet.GetFrameBuf so the engine can prepend its session
// ID without a copy.
type FrameFunc func(b *packet.Buf, emit func(*packet.Buf)) error

// FlushFunc emits whatever a stage is still holding — a partially filled FEC
// group, frames a timed stage has not released yet — leaving it empty. It runs
// when the stream ends, when the stage leaves a live chain and on
// FrameChain.Flush, so retained frames are never lost with it.
type FlushFunc func(emit func(*packet.Buf)) error

// ReleaseFunc is the timer half of a timed stage's frame form (delay,
// ratelimit, jitter): the frame function holds frames with a due time, and
// release emits, in order, every held frame that is due and reports how long
// until the next one is — 0 when the stage holds nothing. A FrameChain calls
// it under its lock, through the stage's downstream wiring, after a frame
// enters an idle chain and whenever the chain's timer fires. A stage's next
// due time may move later as frames arrive but never earlier, so the timer
// can fire early (release reports the new wait) and never late.
type ReleaseFunc func(emit func(*packet.Buf)) (wait time.Duration)

// MaxHeld bounds the frames a timed stage holds inline. An inline stage has
// no queue behind it to push back on, so past the bound new frames are
// dropped and counted through the stage's OnDrop hook.
const MaxHeld = 1024

// ErrBadFrame marks a frame a stage cannot process because of what it
// carries — a payload that is not DEFLATE, an FEC share of no size. Any
// sender can produce those, so they are not stage failures: both drivers drop
// the frame, count it through the stage's OnDrop hook, and carry on.
var ErrBadFrame = errors.New("filter: bad frame")

// Errors of the frame executor.
var (
	// ErrNoFrameForm is returned when a stage that only has a stream body is
	// offered to a FrameChain.
	ErrNoFrameForm = errors.New("filter: stage has no frame form")
	// ErrFrameChainClosed is returned by operations on a FrameChain that was
	// closed or has failed.
	ErrFrameChainClosed = errors.New("filter: frame chain closed")
)

// NewFrame returns a filter whose one body is the frame function: a
// FrameChain calls it directly, and the stream-mode ProcessFunc is derived
// from it (read one frame, call, write each emitted frame with a single
// Write, so pause/reconnect always lands on a frame boundary). flush may be
// nil for stages that retain nothing.
func NewFrame(name string, frame FrameFunc, flush FlushFunc) *Base {
	b := &Base{name: name}
	b.fn = streamDriver(frame, flush, b.CountDrop)
	return b.WithFrame(frame, flush)
}

// WithFrame attaches a frame form to a filter that keeps its own stream
// body — the chunk-oriented pass-through built-ins, whose stream form must
// also serve unframed byte streams. It returns b for chaining and must be
// called before the filter is used.
func (b *Base) WithFrame(frame FrameFunc, flush FlushFunc) *Base {
	b.frame, b.flush = frame, flush
	return b
}

// WithRelease makes a frame form timed (see ReleaseFunc). It returns b for
// chaining and must be called before the filter is used.
func (b *Base) WithRelease(release ReleaseFunc) *Base {
	b.release = release
	return b
}

// OnDrop registers fn to run for every frame the stage drops — a bad frame,
// or a timed stage's overflow past MaxHeld — so the chain's owner can count
// it. Call it before the stage carries traffic.
func (b *Base) OnDrop(fn func()) { b.onDrop = fn }

// CountDrop reports one dropped frame to the OnDrop hook, if any.
func (b *Base) CountDrop() {
	if b.onDrop != nil {
		b.onDrop()
	}
}

// SetClock replaces the clock a timed stage's frame form reads (time.Now by
// default); tests inject a fake one. Call it before the stage carries traffic.
func (b *Base) SetClock(now func() time.Time) { b.now = now }

// Now reads the stage's clock.
func (b *Base) Now() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// frameBase lets the package reach the Base inside any filter that embeds
// one.
func (b *Base) frameBase() *Base { return b }

// baseOf returns the Base carrying f's frame form, or nil when f has none.
func baseOf(f Filter) *Base {
	fb, ok := f.(interface{ frameBase() *Base })
	if !ok {
		return nil
	}
	if b := fb.frameBase(); b != nil && b.frame != nil {
		return b
	}
	return nil
}

// HasFrameForm reports whether a FrameChain can run f inline.
func HasFrameForm(f Filter) bool { return baseOf(f) != nil }

// streamDriver derives a stage's stream-mode body from its frame form; bad
// frames are dropped and reported to drop.
func streamDriver(frame FrameFunc, flush FlushFunc, drop func()) ProcessFunc {
	return func(r io.Reader, w io.Writer) error {
		pr := packet.NewReader(r)
		var werr error
		emit := func(b *packet.Buf) {
			if werr == nil {
				if _, err := w.Write(b.B); err != nil {
					werr = fmt.Errorf("filter: write frame: %w", err)
				}
			}
			b.Release()
		}
		for {
			b, err := pr.ReadFrameBuf(0)
			if err != nil {
				if err != io.EOF {
					return err
				}
				if flush != nil {
					if ferr := flush(emit); ferr != nil {
						return ferr
					}
				}
				return werr
			}
			if err := frame(b, emit); errors.Is(err, ErrBadFrame) {
				drop()
			} else if err != nil {
				return err
			}
			if werr != nil {
				return werr
			}
		}
	}
}

// FrameChain is the run-to-completion executor for chains whose every stage
// has a frame form: Run pushes one frame depth-first through the stages on
// the caller's goroutine and hands what comes out to the sink — no goroutine
// per stage, no byte pipe between them, no copy. It is the frame-native
// counterpart of Chain and implements the same SetInterior contract for the
// compose plane.
//
// One mutex serializes everything: frames enter one at a time (several
// goroutines may feed one chain), and a splice is a slice swap under the
// same lock, so it lands between two frames by construction — the paper's
// frame-boundary guarantee without a pause/drain protocol. The lock is
// uncontended unless two feeders collide or the control plane is splicing.
//
// Timed stages (ReleaseFunc) hold frames past the call that brought them. The
// chain then arms one runtime timer — a goroutine only while its callback
// runs — which takes the same lock and releases what fell due through the
// wiring downstream of each timed stage.
type FrameChain struct {
	sink func(*packet.Buf)

	mu     sync.Mutex
	slots  []frameSlot
	timed  bool        // some stage has a ReleaseFunc
	timer  *time.Timer // created on first use
	armed  bool        // timer pending; its callback clears this under mu
	err    error
	closed bool
}

// frameSlot is one stage's position in a FrameChain's current wiring.
type frameSlot struct {
	fc    *FrameChain
	stage Filter
	base  *Base
	down  *frameSlot          // nil: the chain's sink
	emit  func(b *packet.Buf) // slot.forward, bound once per splice
}

// run feeds one frame to the slot's stage.
func (sl *frameSlot) run(b *packet.Buf) {
	if sl.fc.err != nil {
		b.Release() // an upstream stage already failed this chain
		return
	}
	sl.base.bytesIn.Add(uint64(len(b.B)))
	if err := sl.base.frame(b, sl.emit); errors.Is(err, ErrBadFrame) {
		sl.base.CountDrop()
	} else if err != nil {
		sl.fc.failLocked(fmt.Errorf("filter %q: %w", sl.base.name, err))
	}
}

// forward is the slot's emit: it carries the stage's output downstream.
func (sl *frameSlot) forward(b *packet.Buf) {
	sl.base.bytesOut.Add(uint64(len(b.B)))
	if sl.down != nil {
		sl.down.run(b)
		return
	}
	sl.fc.sink(b)
}

// NewFrameChain returns an empty frame chain delivering its output to sink,
// which takes ownership of each buffer. sink runs with the chain's lock held
// and must not call back into the chain.
func NewFrameChain(sink func(*packet.Buf)) *FrameChain {
	return &FrameChain{sink: sink}
}

// Filters returns a snapshot of the chain's stages in order.
func (fc *FrameChain) Filters() []Filter {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	out := make([]Filter, len(fc.slots))
	for i := range fc.slots {
		out[i] = fc.slots[i].stage
	}
	return out
}

// Enter takes the chain's lock for a run of frames and reports whether the
// chain is open; on false the lock is not held. Callers that must do
// something between admission and processing (the engine counts the datagram)
// use Enter/Run/Exit; everyone else uses Process.
func (fc *FrameChain) Enter() bool {
	fc.mu.Lock()
	if fc.closed {
		fc.mu.Unlock()
		return false
	}
	return true
}

// Exit releases the lock taken by a successful Enter.
func (fc *FrameChain) Exit() { fc.mu.Unlock() }

// Run pushes one frame through the stages to completion — or into a timed
// stage, which holds it for the chain's timer. The caller must be inside
// Enter/Exit. Run takes ownership of b. A stage error fails the chain for
// good — the frame in flight is dropped, the chain closes without flushing —
// and is returned from this and reported by every later Err.
func (fc *FrameChain) Run(b *packet.Buf) error {
	if len(fc.slots) == 0 {
		fc.sink(b)
		return nil
	}
	fc.slots[0].run(b)
	if fc.timed && !fc.armed {
		fc.releaseLocked()
	}
	return fc.err
}

// releaseLocked runs every timed stage's release, upstream first so what one
// releases may be held by the next, and (re)arms the timer for the earliest
// next due time. Caller holds fc.mu.
func (fc *FrameChain) releaseLocked() {
	var next time.Duration
	for i := range fc.slots {
		sl := &fc.slots[i]
		if sl.base.release == nil || fc.err != nil {
			continue
		}
		if w := sl.base.release(sl.emit); w > 0 && (next == 0 || w < next) {
			next = w
		}
	}
	if next == 0 || fc.err != nil {
		return
	}
	if fc.timer == nil {
		fc.timer = time.AfterFunc(next, fc.fire)
	} else {
		fc.timer.Reset(next)
	}
	fc.armed = true
}

// fire is the timer's callback.
func (fc *FrameChain) fire() {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.armed = false
	if !fc.closed {
		fc.releaseLocked()
	}
}

// Process is Enter, Run, Exit. It returns ErrFrameChainClosed without taking
// ownership of b when the chain is closed.
func (fc *FrameChain) Process(b *packet.Buf) error {
	if !fc.Enter() {
		return ErrFrameChainClosed
	}
	defer fc.Exit()
	return fc.Run(b)
}

// Err returns the stage error that failed the chain, if any.
func (fc *FrameChain) Err() error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.err
}

// SetInterior atomically replaces the chain's stages, with Chain.SetInterior's
// semantics: stages present before and after keep their state, and a stage
// that leaves is first flushed through the old wiring downstream of it (so a
// partial FEC group or a retained window is delivered, not lost) and then
// retired. Every stage must have a frame form; a stage without one fails the
// call with ErrNoFrameForm before anything is touched.
func (fc *FrameChain) SetInterior(stages []Filter) error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.closed {
		return ErrFrameChainClosed
	}
	next := make([]frameSlot, len(stages))
	for i, f := range stages {
		if f == nil {
			return fmt.Errorf("filter: nil interior stage")
		}
		base := baseOf(f)
		if base == nil {
			return fmt.Errorf("%w: %q", ErrNoFrameForm, f.Name())
		}
		for j := 0; j < i; j++ {
			if next[j].base == base {
				return fmt.Errorf("filter: stage %q appears twice in the target interior", f.Name())
			}
		}
		if fc.indexOf(base) < 0 && f.Running() {
			return fmt.Errorf("filter: incoming stage %q is already running", f.Name())
		}
		next[i] = frameSlot{fc: fc, stage: f, base: base}
	}
	// Leavers flush upstream first, through the wiring they leave: what one
	// releases still passes every stage that was downstream of it.
	var firstErr error
	for i := range fc.slots {
		sl := &fc.slots[i]
		kept := false
		for j := range next {
			if next[j].base == sl.base {
				kept = true
				break
			}
		}
		if kept {
			continue
		}
		if err := sl.retire(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if fc.err != nil {
		return fc.err // a leaver's flush failed a downstream stage
	}
	fc.timed = false
	for i := range next {
		sl := &next[i]
		if i+1 < len(next) {
			sl.down = &next[i+1]
		}
		sl.emit = sl.forward
		sl.base.inline.Store(true)
		fc.timed = fc.timed || sl.base.release != nil
	}
	fc.slots = next
	if fc.timed {
		fc.releaseLocked() // a joining stage may fall due before the armed timer
	}
	return firstErr
}

// indexOf returns the position of the stage backed by base, or -1. Caller
// holds fc.mu.
func (fc *FrameChain) indexOf(base *Base) int {
	for i := range fc.slots {
		if fc.slots[i].base == base {
			return i
		}
	}
	return -1
}

// flush empties the slot's stage through the current wiring.
func (sl *frameSlot) flush() error {
	if sl.base.flush == nil || sl.fc.err != nil {
		return nil
	}
	if err := sl.base.flush(sl.emit); err != nil {
		return fmt.Errorf("filter %q: flush: %w", sl.base.name, err)
	}
	return nil
}

// retire flushes the slot's stage and releases it from the chain.
func (sl *frameSlot) retire() error {
	err := sl.flush()
	sl.base.inline.Store(false)
	return err
}

// Flush emits what every stage is holding — a partial FEC group, frames a
// timed stage has not released — through the current wiring, upstream first,
// and leaves the chain open. The engine flushes a delivery cohort before
// changing who its output goes to. It returns the first flush error.
func (fc *FrameChain) Flush() error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var firstErr error
	for i := range fc.slots {
		if err := fc.slots[i].flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close flushes every stage through the chain, upstream first, retires them
// all and closes the chain: later Enter calls report false. It returns the
// first flush error. Close is idempotent.
func (fc *FrameChain) Close() error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.closed {
		return nil
	}
	var firstErr error
	for i := range fc.slots {
		if err := fc.slots[i].retire(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	fc.slots, fc.closed = nil, true
	fc.stopTimer()
	return firstErr
}

// stopTimer cancels a pending release; a callback already waiting on the
// lock finds the chain closed. Caller holds fc.mu.
func (fc *FrameChain) stopTimer() {
	if fc.timer != nil {
		fc.timer.Stop()
	}
	fc.armed = false
}

// failLocked records the first stage error and closes the chain without
// flushing: a failed stage's state is not trusted to emit anything more.
// Caller holds fc.mu (it is called from inside Run).
func (fc *FrameChain) failLocked(err error) {
	if fc.err != nil {
		return
	}
	fc.err, fc.closed = err, true
	for i := range fc.slots {
		fc.slots[i].base.inline.Store(false)
	}
	fc.stopTimer()
}
