package filter

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/packet"
)

// ErrChainTooShort is returned by Start on a chain that does not hold both
// of its endpoints.
var ErrChainTooShort = errors.New("filter: chain needs a source and a sink")

const (
	// pumpHeld is how many frames a Chain's timed stages may hold before the
	// pump stops reading, so a source faster than a ratelimit or delay waits
	// instead of overflowing MaxHeld.
	pumpHeld = MaxHeld / 4
	// stopGrace is how long Stop waits for the pump to flush into the sink
	// before closing the sink under a write that does not return.
	stopGrace = time.Second
)

// Source is a Chain's input endpoint. ReadFrame returns the next frame in a
// pooled buffer the chain takes ownership of, or io.EOF once the stream has
// ended. Close ends the stream early: it releases what the source reads from,
// which unblocks a ReadFrame in progress where the source allows it.
type Source interface {
	Name() string
	ReadFrame() (*packet.Buf, error)
	Close() error
}

// Sink is a Chain's output endpoint. WriteFrame takes ownership of one frame;
// Close ends the stream downstream once the chain has flushed into it. When
// Stop gives up on a WriteFrame that does not return, Close runs while it is
// in progress and should make it return.
type Sink interface {
	Name() string
	WriteFrame(*packet.Buf) error
	Close() error
}

// Stage is what a Chain is assembled from: a Source, then Filters, then a
// Sink.
type Stage interface{ Name() string }

// Chain is the paper's ControlThread with its filter vector, as a stream
// proxy: a Source endpoint, a FrameChain holding the interior, and a Sink
// endpoint the FrameChain delivers to. One goroutine, the pump, reads frames
// from the source and runs each through the interior to the sink. SetInterior
// is the FrameChain's splice, so a live insertion, removal or reorder lands
// between two frames and loses nothing. The pump stops reading while the
// timed stages hold pumpHeld frames, so a slow stage pushes back on the
// source instead of dropping. When the source ends, the timed stages release
// what they hold on their timer, every stage is flushed into the sink and the
// sink is closed.
//
// All methods are safe for concurrent use.
type Chain struct {
	name   string
	frames *FrameChain
	quit   chan struct{} // closed by Stop
	done   chan struct{} // closed when the pump returns
	// sinkFailed is set once a WriteFrame has failed; the pump stops reading
	// and what stages still emit is dropped.
	sinkFailed atomic.Bool
	// splice serializes Append's read-modify-write of the interior with
	// SetInterior. It is taken before the FrameChain's lock, never under c.mu.
	splice    sync.Mutex
	closeSink sync.Once

	mu       sync.Mutex
	source   Source
	sink     Sink // set before Start and never after, so the pump reads it unlocked
	started  bool
	stopping bool
	err      error // the stream's first error
}

// NewChain returns an empty chain with the given name.
func NewChain(name string) *Chain {
	c := &Chain{name: name, quit: make(chan struct{}), done: make(chan struct{})}
	c.frames = NewFrameChain(c.deliver)
	return c
}

// Name returns the chain's name.
func (c *Chain) Name() string { return c.name }

// Names returns the ordered stage names, endpoints included — the listing the
// paper's ControlManager renders.
func (c *Chain) Names() []string {
	c.mu.Lock()
	source, sink := c.source, c.sink
	c.mu.Unlock()
	var names []string
	if source != nil {
		names = append(names, source.Name())
	}
	for _, f := range c.frames.Filters() {
		names = append(names, f.Name())
	}
	if sink != nil {
		names = append(names, sink.Name())
	}
	return names
}

// Append adds the next stage: first a Source, then any Filters, which form the
// initial interior, then a Sink. A Filter appended after the Sink joins the
// end of the interior, just ahead of the Sink; on a running chain that is a
// live splice (SetInterior), which starts the filter. The endpoints are fixed
// once the chain starts.
func (c *Chain) Append(s Stage) error {
	if taken, err := c.appendEndpoint(s); taken || err != nil {
		return err
	}
	// The FrameChain's lock is never taken under c.mu: deliver takes c.mu
	// under it.
	c.splice.Lock()
	defer c.splice.Unlock()
	return c.frames.SetInterior(append(c.frames.Filters(), s.(Filter)))
}

// appendEndpoint takes s as the chain's source or its sink when that is the
// endpoint due, reporting whether it did. It fails for an endpoint that is
// not due, and lets any Filter after the source through.
func (c *Chain) appendEndpoint(s Stage) (taken bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.source == nil {
		src, ok := s.(Source)
		if !ok {
			return false, fmt.Errorf("filter: chain %q must start with a source, not %q", c.name, s.Name())
		}
		c.source = src
		return true, nil
	}
	if _, ok := s.(Filter); ok {
		return false, nil
	}
	sink, ok := s.(Sink)
	switch {
	case c.started:
		return false, ErrAlreadyStarted
	case c.sink != nil:
		return false, fmt.Errorf("filter: chain %q already ends in %q", c.name, c.sink.Name())
	case !ok:
		return false, fmt.Errorf("filter: %q is neither a filter nor a sink", s.Name())
	}
	c.sink = sink
	return true, nil
}

// SetInterior atomically replaces everything between the endpoints; see
// FrameChain.SetInterior. Once the stream has ended it returns
// ErrFrameChainClosed.
func (c *Chain) SetInterior(stages []Filter) error {
	c.splice.Lock()
	defer c.splice.Unlock()
	return c.frames.SetInterior(stages)
}

// Start launches the pump.
func (c *Chain) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started || c.stopping {
		return ErrAlreadyStarted
	}
	if c.source == nil || c.sink == nil {
		return ErrChainTooShort
	}
	c.started = true
	go c.pump()
	return nil
}

// Stop ends the stream now: it closes the source and waits for the pump to
// flush every stage into the sink, held frames included, and close it. A
// source that cannot be interrupted (a generator) is not read again. If the
// sink has not taken the flush within stopGrace — its peer stopped reading —
// Stop closes it, and what the stages still emit is dropped. Stop returns the
// error closing the source reported.
func (c *Chain) Stop() error {
	c.mu.Lock()
	if !c.started || c.stopping {
		c.mu.Unlock()
		return ErrNotStarted
	}
	c.stopping = true
	c.mu.Unlock()
	close(c.quit)
	err := c.source.Close()
	select {
	case <-c.done:
	case <-time.After(stopGrace):
		c.closeSinkOnce()
		<-c.done
	}
	return err
}

// Wait blocks until the stream has ended — the source ran dry or was closed,
// a stage failed, or the sink refused a frame — and everything was flushed.
// It returns the stream's first error: the source's (other than its end, or
// the close Stop caused), a stage's, or the sink's.
func (c *Chain) Wait() error {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail records err as the stream's error unless one is already recorded.
func (c *Chain) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// pump is the chain's one goroutine.
func (c *Chain) pump() {
	defer close(c.done)
	for c.frames.AwaitHeld(pumpHeld, c.quit) && !c.sinkFailed.Load() {
		b, err := c.source.ReadFrame()
		if errors.Is(err, io.EOF) {
			// The stream ended: the timed stages release what they hold on
			// their timer, unless Stop cuts that short.
			if !c.sinkFailed.Load() {
				c.frames.AwaitHeld(1, c.quit)
			}
			break
		}
		if err != nil {
			select {
			case <-c.quit: // the close Stop caused
			default:
				c.fail(fmt.Errorf("filter: source %q: %w", c.source.Name(), err))
			}
			break
		}
		if err := c.frames.Process(b); err != nil {
			if errors.Is(err, ErrFrameChainClosed) {
				b.Release() // a stage failed on a frame its timer released
			}
			break // the stage error is the chain's Err
		}
	}
	if err := c.frames.Err(); err != nil {
		c.fail(err)
	}
	if err := c.frames.Close(); err != nil {
		c.fail(err)
	}
	c.closeSinkOnce()
}

// closeSinkOnce closes the sink the first time it is called: at the end of
// the pump, or from Stop under a write that does not return.
func (c *Chain) closeSinkOnce() {
	c.closeSink.Do(func() {
		if err := c.sink.Close(); err != nil {
			c.fail(fmt.Errorf("filter: sink %q: %w", c.sink.Name(), err))
		}
	})
}

// deliver is the FrameChain's sink. It runs under the FrameChain's lock, so
// writes never interleave.
func (c *Chain) deliver(b *packet.Buf) {
	if c.sinkFailed.Load() {
		b.Release()
		return
	}
	if err := c.sink.WriteFrame(b); err != nil {
		c.fail(fmt.Errorf("filter: sink %q: %w", c.sink.Name(), err))
		c.sinkFailed.Store(true)
	}
}
