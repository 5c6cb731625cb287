// Package filter defines the proxy filter abstraction from the paper: active
// components that read a byte stream from a DetachableInputStream, transform
// it, and write the result to a DetachableOutputStream. Filters are composed
// into a Chain (the paper's ControlThread), whose one splice, SetInterior,
// inserts, deletes and reorders them on a live stream using the
// detachable-stream pause/reconnect protocol.
//
// Two executors run the same stage bodies. Chain, with one goroutine per
// stage and the Quiescer drain, serves rapidproxy's stream mode (a
// compose.Live over TCP endpoints), the paper's figures and bench/layers.
// FrameChain runs every stage's frame form inline and is the only executor
// internal/engine builds.
package filter

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/stream"
)

// Errors returned by filters and chains.
var (
	// ErrAlreadyStarted is returned by Start when the filter is running.
	ErrAlreadyStarted = errors.New("filter: already started")
	// ErrNotStarted is returned by Stop when the filter never started.
	ErrNotStarted = errors.New("filter: not started")
)

// Filter is a processing stage in a proxy pipeline. Implementations own an
// input reader (the paper's DIS) and an output writer (DOS); Start launches
// the goroutine that pumps data between them, and Stop terminates it.
//
// A Filter must tolerate its streams being paused and reconnected underneath
// it: the detachable streams make this transparent to straightforward
// read/process/write loops.
type Filter interface {
	// Name returns a short, human-readable identifier used by the control
	// protocol and in chain listings.
	Name() string
	// In returns the filter's input stream endpoint.
	In() *stream.DetachableReader
	// Out returns the filter's output stream endpoint.
	Out() *stream.DetachableWriter
	// Start launches the filter's processing goroutine.
	Start() error
	// Stop terminates processing, closes the filter's streams and waits for
	// the processing goroutine to exit.
	Stop() error
	// Running reports whether the filter has been started and not stopped.
	Running() bool
}

// ProcessFunc is the body of a filter: it reads from r until EOF (or error)
// and writes transformed data to w. Returning nil or io.EOF indicates a clean
// shutdown.
type ProcessFunc func(r io.Reader, w io.Writer) error

// Base is a ready-made Filter implementation around a ProcessFunc. It owns a
// DetachableReader/DetachableWriter pair and a single processing goroutine.
// Concrete filters either embed *Base configured with their ProcessFunc or
// use New directly.
//
// A Base may also carry a frame form (see frame.go): the same stage body
// expressed per frame, which a FrameChain runs inline with no goroutine and
// no streams. A stage built with NewFrame has only that body — its
// ProcessFunc is the stream driver derived from it.
type Base struct {
	name string
	fn   ProcessFunc

	// frame/flush are the stage's frame form; nil for stream-only stages.
	// release is set on timed frame forms (see ReleaseFunc).
	frame   FrameFunc
	flush   FlushFunc
	release ReleaseFunc
	// onDrop counts frames the stage drops (OnDrop); now is a timed stage's
	// clock (SetClock). Both are set before the stage carries traffic.
	onDrop func()
	now    func() time.Time
	// inline is set while a FrameChain holds the stage: it is live without a
	// goroutine of its own.
	inline atomic.Bool

	// The stream endpoints are created on first use, so a stage that only
	// ever runs inline never pays for them. Guarded by mu.
	in  *stream.DetachableReader
	out *stream.DetachableWriter

	// bytesIn and bytesOut count the bytes the processing goroutine has read
	// and written, maintained by thin wrappers around the streams handed to
	// fn. They feed the control plane's per-stage view; two atomic adds per
	// chunk keep the data path allocation-free.
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	// busy is true from the moment a read hands the processing goroutine
	// data until it comes back for more — i.e. while the goroutine may hold
	// consumed-but-unemitted bytes. Chain.SetInterior waits for stages to go
	// quiescent after freezing their inflow, so a splice never discards a
	// chunk that was mid-transform.
	busy atomic.Bool

	mu      sync.Mutex
	started bool
	stopped bool
	done    chan struct{}
	runErr  error
	onExit  func()
}

// New returns a filter named name whose processing loop is fn.
func New(name string, fn ProcessFunc) *Base {
	return &Base{name: name, fn: fn}
}

// Name implements Filter.
func (b *Base) Name() string { return b.name }

// In implements Filter.
func (b *Base) In() *stream.DetachableReader {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.endpointsLocked()
	return b.in
}

// Out implements Filter.
func (b *Base) Out() *stream.DetachableWriter {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.endpointsLocked()
	return b.out
}

// endpointsLocked creates the stream endpoints on first use. Caller holds
// b.mu.
func (b *Base) endpointsLocked() {
	if b.in != nil {
		return
	}
	b.in = stream.NewDetachableReader()
	// Filter loops always come back to Read, so their inputs can carry
	// hand-off accounting: a splice that pauses this filter's inflow does
	// not complete the drain until the loop has pushed everything it was
	// handed and asked for more — the guarantee behind loss-free live
	// recomposition.
	b.in.TrackHandoff()
	b.out = stream.NewDetachableWriter()
}

// Running implements Filter: the stage has a live processing goroutine, or a
// FrameChain is running it inline.
func (b *Base) Running() bool {
	if b.inline.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.started && !b.stopped
}

// OnExit registers fn to run on the processing goroutine after it has
// terminated and after Wait observers have been unblocked. It must be called
// before Start; at most one hook is supported (later calls replace earlier
// ones). The engine uses this to evict sessions whose chains die without
// spending a watchdog goroutine per session.
func (b *Base) OnExit(fn func()) {
	b.mu.Lock()
	b.onExit = fn
	b.mu.Unlock()
}

// Start implements Filter. The processing goroutine runs fn(in, out); when fn
// returns, the output stream is closed so downstream stages observe EOF (or
// the error fn returned), then any OnExit hook fires.
func (b *Base) Start() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started {
		return ErrAlreadyStarted
	}
	b.started = true
	b.done = make(chan struct{})
	b.endpointsLocked()
	onExit := b.onExit
	in, out, done := b.in, b.out, b.done
	go func() {
		if onExit != nil {
			// Deferred first so it runs last: after done is closed and every
			// Wait caller can already observe the exit.
			defer onExit()
		}
		defer close(done)
		err := b.fn(countingReader{in, &b.bytesIn, &b.busy}, countingWriter{out, &b.bytesOut})
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, stream.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
			b.mu.Lock()
			b.runErr = err
			b.mu.Unlock()
			out.CloseWithError(fmt.Errorf("filter %q: %w", b.name, err))
			return
		}
		out.Close()
	}()
	return nil
}

// Stop implements Filter. It closes both stream endpoints, which unblocks the
// processing goroutine, and waits for it to exit. Stop is idempotent.
func (b *Base) Stop() error {
	b.mu.Lock()
	if !b.started {
		b.mu.Unlock()
		return ErrNotStarted
	}
	if b.stopped {
		done := b.done
		b.mu.Unlock()
		<-done
		return nil
	}
	b.stopped = true
	done, in, out := b.done, b.in, b.out
	b.mu.Unlock()

	in.Close()
	out.Close()
	<-done
	return nil
}

// Err returns the error the processing function terminated with, if any.
func (b *Base) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runErr
}

// IOBytes returns the number of bytes the filter's processing goroutine has
// read from its input and written to its output, the per-stage counters the
// control plane's session view reports.
func (b *Base) IOBytes() (in, out uint64) {
	return b.bytesIn.Load(), b.bytesOut.Load()
}

// Quiescer is implemented by filters that can report whether their
// processing goroutine is currently holding consumed-but-unemitted data.
// Chain.SetInterior uses it to drain a stage completely — upstream paused,
// stage idle — before detaching it, so live recomposition never loses a
// chunk that was mid-transform.
type Quiescer interface {
	Quiescent() bool
}

// Quiescent reports that the processing goroutine holds no consumed data: it
// is parked in (or on its way back to) a read. Only meaningful while the
// filter's inflow is frozen — with data still arriving the state flaps.
func (b *Base) Quiescent() bool { return !b.busy.Load() }

// countingReader and countingWriter wrap the stream endpoints handed to a
// Base's ProcessFunc so every stage reports per-stage traffic — and the
// quiescence state splices rely on — without any cooperation from the
// filter body.
type countingReader struct {
	r    io.Reader
	n    *atomic.Uint64
	busy *atomic.Bool
}

func (c countingReader) Read(p []byte) (int, error) {
	// Everything consumed so far has been processed and emitted (or
	// deliberately retained as filter state): the goroutine is back asking
	// for more.
	c.busy.Store(false)
	n, err := c.r.Read(p)
	if n > 0 {
		c.n.Add(uint64(n))
		c.busy.Store(true)
	}
	return n, err
}

type countingWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		c.n.Add(uint64(n))
	}
	return n, err
}

// Wait blocks until the processing goroutine has exited (after Start).
func (b *Base) Wait() {
	b.mu.Lock()
	done := b.done
	b.mu.Unlock()
	if done != nil {
		<-done
	}
}

var _ Filter = (*Base)(nil)
