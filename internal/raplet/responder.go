package raplet

import (
	"errors"
	"fmt"
	"sync"

	"rapidware/internal/compose"
)

// ThresholdResponder implements the paper's demand-driven reconfiguration
// on a live composed chain: when an event's value crosses a threshold it
// splices one stage into the chain's plan at a fixed position, and when the
// value falls back it removes that stage again, all on the running stream.
// Loss above a threshold switching an FEC encoder in (the paper's §3
// scenario) and bandwidth below one switching a rate limiter in are two
// configurations of it. Every change is a compose.Live plan edit, so it
// serializes with control-plane recompositions of the same chain.
type ThresholdResponder struct {
	name      string
	live      *compose.Live
	stage     compose.Stage
	position  int
	threshold float64
	above     bool // insert when value >= threshold (true) or <= threshold (false)

	mu         sync.Mutex
	inserted   bool
	insertions uint64
	removals   uint64
}

// NewThresholdResponder returns a responder that inserts the one-stage spec
// stage (e.g. "fec-encode=6/4") at plan position when an event's value
// crosses threshold in the configured direction, and removes it when the
// value falls back.
func NewThresholdResponder(name string, live *compose.Live, stage string, position int, threshold float64, insertWhenAbove bool) (*ThresholdResponder, error) {
	if live == nil {
		return nil, errors.New("raplet: threshold responder requires a live chain")
	}
	st, err := compose.ParseStage(live.Registry(), stage, live.Mode())
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = "threshold-responder:" + st.Kind
	}
	return &ThresholdResponder{
		name:      name,
		live:      live,
		stage:     st,
		position:  position,
		threshold: threshold,
		above:     insertWhenAbove,
	}, nil
}

// Name implements Responder.
func (r *ThresholdResponder) Name() string { return r.name }

// Active reports whether the managed stage is currently inserted.
func (r *ThresholdResponder) Active() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inserted
}

// Stats returns how many times the responder inserted and removed the stage.
func (r *ThresholdResponder) Stats() (insertions, removals uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.insertions, r.removals
}

// Handle implements Responder: it inserts or removes the stage as the event
// value crosses the threshold.
func (r *ThresholdResponder) Handle(e Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	trigger := e.Value >= r.threshold
	if !r.above {
		trigger = e.Value <= r.threshold
	}
	switch {
	case trigger && !r.inserted:
		if err := r.live.Edit(func(_ *compose.Registry, _ compose.Mode, cur compose.Plan) (compose.Plan, error) {
			return cur.WithInsert(r.position, r.stage)
		}); err != nil {
			return fmt.Errorf("raplet: insert %s: %w", r.stage, err)
		}
		r.inserted = true
		r.insertions++
	case !trigger && r.inserted:
		if err := r.live.Edit(func(_ *compose.Registry, _ compose.Mode, cur compose.Plan) (compose.Plan, error) {
			if pos := r.find(cur); pos >= 0 {
				return cur.WithRemove(pos)
			}
			return cur, nil // an operator already removed it
		}); err != nil {
			return fmt.Errorf("raplet: remove %s: %w", r.stage, err)
		}
		r.inserted = false
		r.removals++
	}
	return nil
}

// find returns the plan position of the responder's stage: where it was
// inserted if it is still there, else its first occurrence (an operator
// moved it), else -1.
func (r *ThresholdResponder) find(p compose.Plan) int {
	if r.position < p.Len() && p.Stages[r.position] == r.stage {
		return r.position
	}
	for i, st := range p.Stages {
		if st == r.stage {
			return i
		}
	}
	return -1
}

var _ Responder = (*ThresholdResponder)(nil)
