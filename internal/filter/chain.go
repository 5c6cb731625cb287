package filter

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rapidware/internal/stream"
)

// ErrChainTooShort is returned by SetInterior on a chain that does not yet
// hold its two endpoint stages.
var ErrChainTooShort = errors.New("filter: chain needs at least two stages")

// Chain is the paper's ControlThread: it owns the ordered vector of filters
// on one data stream and rewrites it live — insertion, removal and
// reordering alike — through one transactional splice, SetInterior, built on
// the detachable-stream pause/reconnect protocol. Positions 0 and len-1 hold
// the input and output endpoints.
//
// All methods are safe for concurrent use; structural operations are
// serialized so at most one splice is in progress at a time.
type Chain struct {
	mu      sync.Mutex
	name    string
	stages  []Filter
	started bool
}

// NewChain returns an empty chain with the given name.
func NewChain(name string) *Chain {
	return &Chain{name: name}
}

// Name returns the chain's name.
func (c *Chain) Name() string { return c.name }

// Len returns the number of stages currently in the chain.
func (c *Chain) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.stages)
}

// Names returns the ordered list of stage names, the enumeration the paper's
// ControlManager queries to render proxy state.
func (c *Chain) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, len(c.stages))
	for i, f := range c.stages {
		names[i] = f.Name()
	}
	return names
}

// Filters returns a snapshot of the chain's stages in order.
func (c *Chain) Filters() []Filter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Filter(nil), c.stages...)
}

// Append adds a stage to the end of the chain, connecting its input to the
// output of the previous stage. Append is intended for initial assembly
// (before Start); to change a running chain use SetInterior.
func (c *Chain) Append(f Filter) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.stages) > 0 {
		prev := c.stages[len(c.stages)-1]
		if err := stream.Connect(prev.Out(), f.In()); err != nil {
			return fmt.Errorf("filter: connect %q to %q: %w", prev.Name(), f.Name(), err)
		}
	}
	c.stages = append(c.stages, f)
	if c.started {
		if err := f.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Start launches every stage of the chain. Stages appended later are started
// automatically.
func (c *Chain) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return ErrAlreadyStarted
	}
	for _, f := range c.stages {
		if err := f.Start(); err != nil {
			return fmt.Errorf("filter: start %q: %w", f.Name(), err)
		}
	}
	c.started = true
	return nil
}

// Stop stops every stage of the chain, upstream first.
func (c *Chain) Stop() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return ErrNotStarted
	}
	var firstErr error
	for _, f := range c.stages {
		if err := f.Stop(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("filter: stop %q: %w", f.Name(), err)
		}
	}
	c.started = false
	return firstErr
}

// SetInterior atomically replaces the chain's interior (everything between
// the endpoint stages) with the given stages, under one acquisition of the
// chain lock — the transactional splice beneath the compose plane's live
// recomposition. Stages already in the chain are rewired in place (their
// processing goroutines and state survive); stages that drop out are stopped
// once isolated; stages new to the chain are started when the chain is
// running.
//
// The switch never exposes a half-built chain to traffic: the source
// endpoint's output is paused first, so no new data enters the interior
// until the full target wiring is connected, and the old interior is drained
// left to right — pausing each stage's output only after everything upstream
// of it has been pushed at least one stage downstream — so no relayed frame
// is lost. (Data a *removed* stage has consumed but not yet emitted — e.g. an
// FEC encoder's partially filled group — leaves with it.)
//
// A stage may appear in the target at most once, and the chain must already
// have its two endpoints.
func (c *Chain) SetInterior(stages []Filter) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.stages) < 2 {
		return ErrChainTooShort
	}
	source := c.stages[0]
	sink := c.stages[len(c.stages)-1]
	old := c.stages[1 : len(c.stages)-1]
	keep := make(map[Filter]bool, len(stages))
	inOld := make(map[Filter]bool, len(old))
	for _, f := range old {
		inOld[f] = true
	}
	for _, f := range stages {
		if f == nil {
			return fmt.Errorf("filter: nil interior stage")
		}
		if f == source || f == sink || keep[f] {
			return fmt.Errorf("filter: stage %q appears twice in the target interior", f.Name())
		}
		keep[f] = true
		if inOld[f] {
			continue
		}
		// Preflight incoming stages before any wiring is disturbed: a stage
		// that is already running elsewhere, still wired to something, or
		// was stopped once (a Base cannot be restarted) would fail the
		// splice midway, and failing here keeps the error path trivial —
		// nothing has been touched yet.
		if f.Running() {
			return fmt.Errorf("filter: incoming stage %q is already running", f.Name())
		}
		if f.In().Connected() || f.Out().Connected() {
			return fmt.Errorf("filter: incoming stage %q is still wired to another chain", f.Name())
		}
		if f.In().Closed() || f.Out().Closed() {
			return fmt.Errorf("filter: incoming stage %q was stopped and cannot be restarted", f.Name())
		}
	}

	// Phase 1: freeze inflow, then drain the old interior left to right. Each
	// Pause detaches one link after its reader has consumed every buffered
	// byte, and before a stage's own output freezes we additionally wait for
	// the stage to go quiescent — its goroutine done transforming what it
	// consumed and parked on its (already frozen and drained) input — so by
	// the time a stage detaches, everything it was ever handed has moved on
	// downstream. (Data a stage *deliberately* retains — an FEC encoder's
	// partially filled group, a thinning filter's dropped packets — is filter
	// state, and leaves with the stage if it is removed.)
	if err := source.Out().Pause(); err != nil && !errors.Is(err, stream.ErrNotConnected) {
		return fmt.Errorf("filter: pause %q: %w", source.Name(), err)
	}
	for _, f := range old {
		waitQuiescent(f)
		if err := f.Out().Pause(); err != nil && !errors.Is(err, stream.ErrNotConnected) {
			return fmt.Errorf("filter: pause %q: %w", f.Name(), err)
		}
	}

	// Phase 2: rewire source -> stages... -> sink. Every link involved was
	// detached above (new stages come with fresh, unconnected endpoints).
	// Preflight makes failure here mean the chain's own endpoints are
	// closing (the session is being torn down); rollbackInterior still
	// restores the original wiring best-effort so an aborted splice never
	// leaves a half-wired chain behind c.stages' back.
	prev := source
	for _, f := range stages {
		if err := stream.Reconnect(prev.Out(), f.In()); err != nil {
			c.rollbackInterior(source, sink, old, stages, nil)
			return fmt.Errorf("filter: reconnect %q->%q: %w", prev.Name(), f.Name(), err)
		}
		prev = f
	}
	if err := stream.Reconnect(prev.Out(), sink.In()); err != nil {
		c.rollbackInterior(source, sink, old, stages, nil)
		return fmt.Errorf("filter: reconnect %q->%q: %w", prev.Name(), sink.Name(), err)
	}

	// Phase 3: bring the target interior to life, then stop the stages that
	// fell out of the chain (now fully isolated).
	if c.started {
		started := make([]Filter, 0, len(stages))
		for _, f := range stages {
			if f.Running() {
				continue
			}
			if err := f.Start(); err != nil {
				c.rollbackInterior(source, sink, old, stages, started)
				return fmt.Errorf("filter: start %q: %w", f.Name(), err)
			}
			started = append(started, f)
		}
	}
	var firstErr error
	for _, f := range old {
		if keep[f] {
			continue
		}
		if err := f.Stop(); err != nil && !errors.Is(err, ErrNotStarted) && firstErr == nil {
			firstErr = fmt.Errorf("filter: stop %q: %w", f.Name(), err)
		}
	}

	next := make([]Filter, 0, len(stages)+2)
	next = append(next, source)
	next = append(next, stages...)
	next = append(next, sink)
	c.stages = next
	return firstErr
}

// rollbackInterior is SetInterior's undo path: it detaches whatever the
// aborted splice managed to wire, restores the original
// source -> old... -> sink wiring, and stops the new stages the splice had
// already started. Best-effort by design — it only runs when the chain's
// endpoints are closing underneath the splice, where the subsequent
// teardown reconciles whatever cannot be restored — so errors are ignored.
// Caller holds c.mu; c.stages still names the original interior.
func (c *Chain) rollbackInterior(source, sink Filter, old, attempted, started []Filter) {
	_ = source.Out().Pause()
	for _, f := range attempted {
		_ = f.Out().Pause()
	}
	for _, f := range started {
		_ = f.Stop()
	}
	prev := source
	for _, f := range old {
		_ = stream.Reconnect(prev.Out(), f.In())
		prev = f
	}
	_ = stream.Reconnect(prev.Out(), sink.In())
}

// waitQuiescent blocks (bounded) until a stage's processing goroutine holds
// no consumed-but-unemitted data. Only meaningful once the stage's inflow is
// frozen: with no new input, quiescence is permanent. Stages that cannot
// report quiescence, and stages that stay busy past the bound (a rate
// limiter starved of tokens mid-chunk), are detached without the wait: their
// in-flight chunk leaves with them if they are removed.
func waitQuiescent(f Filter) {
	q, ok := f.(Quiescer)
	if !ok {
		return
	}
	const bound = 2 * time.Second
	deadline := time.Now().Add(bound)
	for !q.Quiescent() {
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Validate checks the chain's internal wiring: every adjacent pair must be
// connected writer-to-reader.
func (c *Chain) Validate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i+1 < len(c.stages); i++ {
		w := c.stages[i].Out()
		r := c.stages[i+1].In()
		if w.Sink() != r || r.Source() != w {
			return fmt.Errorf("filter: stages %d (%q) and %d (%q) are not wired together",
				i, c.stages[i].Name(), i+1, c.stages[i+1].Name())
		}
	}
	return nil
}
