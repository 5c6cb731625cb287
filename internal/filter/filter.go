// Package filter defines the proxy filter abstraction from the paper and the
// one executor that runs it. A Filter is a stage body in frame form: a
// function over one packet frame that emits zero or more frames (FrameFunc),
// plus a flush for what the stage holds and, on timed stages, a release.
// FrameChain runs a sequence of them to completion on the caller's goroutine,
// and its SetInterior inserts, deletes and reorders stages on a live chain.
//
// The splice contract comes from the paper's detachable streams. There the
// ControlThread paused a filter's DetachableInputStream (DIS), let the bytes
// in flight drain, and reconnected the DetachableOutputStreams (DOS) around
// the new filter vector, so a reconfiguration lost nothing and landed on a
// frame boundary. FrameChain keeps that contract structurally: one lock
// serializes frames and splices, so a splice is a slice swap between two
// frames, and a stage leaving the chain is first flushed through the stages
// downstream of it.
//
// Chain is the stream proxy around one FrameChain: one goroutine pumps frames
// from a Source endpoint through the interior into a Sink endpoint (package
// endpoint). The engine drives its FrameChains directly.
package filter

import (
	"errors"
	"sync/atomic"
	"time"
)

// Errors returned by Chain's lifecycle.
var (
	// ErrAlreadyStarted is returned by Start on a chain that was started, and
	// by Append of an endpoint once it has been.
	ErrAlreadyStarted = errors.New("filter: already started")
	// ErrNotStarted is returned by Stop on a chain that is not running.
	ErrNotStarted = errors.New("filter: not started")
)

// Filter is a processing stage in a proxy pipeline: a Base — its frame form —
// or a type embedding one, so every Filter can run on a FrameChain.
type Filter interface {
	// Name returns a short, human-readable identifier used by the control
	// protocol and in chain listings.
	Name() string
	// Running reports whether a FrameChain currently holds the stage.
	Running() bool
	// IOBytes returns the bytes the stage has taken in and emitted, the
	// per-stage counters the control plane's session view reports.
	IOBytes() (in, out uint64)
	frameBase() *Base
}

// Base is the one Filter implementation: a stage's frame form (see
// frame.go), its per-stage counters and its hooks. Concrete filters embed the
// *Base that NewFrame returns.
type Base struct {
	name string

	// frame/flush are the stage's frame form; release and held are set on
	// timed stages (see ReleaseFunc).
	frame   FrameFunc
	flush   FlushFunc
	release ReleaseFunc
	held    func() int
	// onDrop counts frames the stage drops (OnDrop); now is a timed stage's
	// clock (SetClock). Both are set before the stage carries traffic.
	onDrop func()
	now    func() time.Time
	// inline is set while a FrameChain holds the stage.
	inline atomic.Bool

	// bytesIn and bytesOut count what the stage took in and emitted,
	// maintained by the FrameChain running it.
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
}

// NewFrame returns a filter whose body is the frame function frame. flush may
// be nil for stages that retain nothing.
func NewFrame(name string, frame FrameFunc, flush FlushFunc) *Base {
	return &Base{name: name, frame: frame, flush: flush}
}

// WithRelease makes a frame form timed (see ReleaseFunc); held reports how
// many frames the stage holds, and like release it is called under the lock
// of the FrameChain running the stage. It returns b for chaining and must be
// called before the filter is used.
func (b *Base) WithRelease(release ReleaseFunc, held func() int) *Base {
	b.release, b.held = release, held
	return b
}

// Name implements Filter.
func (b *Base) Name() string { return b.name }

// Running implements Filter.
func (b *Base) Running() bool { return b.inline.Load() }

// IOBytes implements Filter.
func (b *Base) IOBytes() (in, out uint64) {
	return b.bytesIn.Load(), b.bytesOut.Load()
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

func (b *Base) frameBase() *Base { return b }

var _ Filter = (*Base)(nil)
