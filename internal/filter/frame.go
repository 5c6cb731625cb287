package filter

import (
	"errors"
	"fmt"
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

// MaxHeld bounds the frames a timed stage holds inline. An engine session has
// no queue behind it to push back on, so past the bound new frames are
// dropped and counted through the stage's OnDrop hook. A Chain pushes back
// instead: its pump stops reading while its timed stages hold a quarter of
// the bound, so even a full FEC group emitted at once stays under it.
const MaxHeld = 1024

// ErrBadFrame marks a frame a stage cannot process because of what it
// carries — a payload that is not DEFLATE, an FEC share of no size. Any
// sender can produce those, so they are not stage failures: the FrameChain
// drops the frame, counts it through the stage's OnDrop hook, and carries on.
var ErrBadFrame = errors.New("filter: bad frame")

// CheckFrame reports whether b holds exactly one well-formed frame, as a stage
// that reads header fields must before it does: a raw-stream chunk or a short
// buffer can reach a Chain's stages. On failure it releases b and returns an
// error wrapping ErrBadFrame, which the stage returns as its own.
func CheckFrame(b *packet.Buf) error {
	if err := packet.ValidateFrame(b.B); err != nil {
		b.Release()
		return fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return nil
}

// ErrFrameChainClosed is returned by operations on a FrameChain that was
// closed or has failed.
var ErrFrameChainClosed = errors.New("filter: frame chain closed")

// FrameChain is the run-to-completion executor: Run pushes one frame
// depth-first through the stages on the caller's goroutine and hands what
// comes out to the sink — no goroutine per stage, no byte pipe between them,
// no copy. Its SetInterior is the splice the compose plane drives, for the
// engine's sessions and a Chain's interior alike.
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
// wiring downstream of each timed stage. A feeder that must not outrun them
// waits in AwaitHeld.
type FrameChain struct {
	sink func(*packet.Buf)

	mu     sync.Mutex
	slots  []frameSlot
	timed  bool        // some stage has a ReleaseFunc
	timer  *time.Timer // created on first use
	armed  bool        // timer pending; its callback clears this under mu
	err    error
	closed bool
	// released is signalled whenever held frames may have left the timed
	// stages; created by the first AwaitHeld.
	released chan struct{}
	// begin and end bracket each timer release (WithBatch).
	begin, end func()
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

// WithBatch makes the chain's timer call begin before each release and end
// after it, outside the chain's lock, and returns fc: the engine passes its
// batch brackets, so the frames that fall due together leave in one flush
// instead of one send each. Call it before the chain carries traffic.
func (fc *FrameChain) WithBatch(begin, end func()) *FrameChain {
	fc.begin, fc.end = begin, end
	return fc
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
	if fc.begin != nil {
		fc.begin()
		defer fc.end() // after the unlock below
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.armed = false
	if !fc.closed {
		fc.releaseLocked()
		fc.signalLocked()
	}
}

// signalLocked wakes an AwaitHeld. Caller holds fc.mu.
func (fc *FrameChain) signalLocked() {
	select {
	case fc.released <- struct{}{}:
	default: // no waiter yet, or a wake-up already pending
	}
}

// AwaitHeld blocks while the chain's timed stages hold max frames or more
// between them, until their timer releases some, a splice or flush empties
// them, the chain closes or quit is closed. It reports whether the chain is
// open and holds fewer than max frames; false after quit.
func (fc *FrameChain) AwaitHeld(max int, quit <-chan struct{}) bool {
	fc.mu.Lock()
	if fc.released == nil {
		fc.released = make(chan struct{}, 1)
	}
	for !fc.closed && fc.heldLocked() >= max {
		fc.mu.Unlock()
		select {
		case <-fc.released:
		case <-quit:
			return false
		}
		fc.mu.Lock()
	}
	open := !fc.closed
	fc.mu.Unlock()
	return open
}

// heldLocked returns the frames every timed stage holds. Caller holds fc.mu.
func (fc *FrameChain) heldLocked() int {
	n := 0
	for i := range fc.slots {
		if held := fc.slots[i].base.held; held != nil {
			n += held()
		}
	}
	return n
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

// SetInterior atomically replaces the chain's stages: stages present before
// and after keep their state, and a stage that leaves is first flushed through
// the old wiring downstream of it (so a partial FEC group or a retained window
// is delivered, not lost) and then retired. A stage may appear once, and one
// another chain holds is refused; either way the call fails before anything
// is touched.
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
		base := f.frameBase()
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
	fc.signalLocked() // a leaver's held frames are gone
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
	fc.signalLocked()
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
	fc.signalLocked()
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
	fc.signalLocked()
}
