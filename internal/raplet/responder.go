package raplet

import (
	"errors"
	"fmt"
	"sync"

	"rapidware/internal/adapt"
	"rapidware/internal/arq"
	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/fecproxy"
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
		if err := r.live.Edit(func(cur compose.Plan) (compose.Plan, error) {
			return cur.WithInsert(r.position, r.stage)
		}); err != nil {
			return fmt.Errorf("raplet: insert %s: %w", r.stage, err)
		}
		r.inserted = true
		r.insertions++
	case !trigger && r.inserted:
		if err := r.live.Edit(func(cur compose.Plan) (compose.Plan, error) {
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

// ChainFECResponder drives demand-driven repair on a composed live chain —
// the form the multi-session engine uses, where every session trunk and
// delivery branch is a compose.Live whose plan carries a fec-adapt marker
// stage. On each loss-rate event it asks the adapt.Policy to decide a repair
// *mechanism* from the reported loss and RTT (the reliability spectrum:
// clean link → nothing, lossy link → FEC, high-RTT × low-loss → ARQ) and
// reconciles the marker with the decision, expressed entirely as plan
// operations on the Live (never ad-hoc chain surgery):
//
//   - mechanism none and something is active → deactivate the marker,
//     splicing the repair stage out,
//   - mechanism FEC and the marker is idle or holds an ARQ history →
//     (re)activate it with a fresh adaptive encoder,
//   - mechanism FEC while the encoder runs → retune it in place (the switch
//     lands on the next group boundary),
//   - mechanism ARQ and the marker is idle or holds an FEC encoder →
//     (re)activate it with a fresh retransmission history, which the engine
//     serves KindNack requests from.
//
// All of this happens on the bus's dispatch goroutine under the Live's
// splice lock, so responder retunes serialize with control-plane
// recompositions; the session's relay hot path is untouched. If an operator
// recomposes the fec-adapt marker out of the plan, the responder goes
// dormant (events are acknowledged but change nothing) until a recompose
// restores the marker.
type ChainFECResponder struct {
	name       string
	live       *compose.Live
	policy     adapt.Policy
	streamID   uint32
	filterName string
	arqName    string

	mu       sync.Mutex
	current  fec.Params
	mech     adapt.Mechanism
	lastLoss float64
	retunes  uint64
}

// NewChainFECResponder returns a responder managing the adaptive FEC encoder
// behind live's fec-adapt marker; streamID is stamped on emitted packets.
func NewChainFECResponder(name string, live *compose.Live, policy adapt.Policy, streamID uint32) (*ChainFECResponder, error) {
	if live == nil {
		return nil, errors.New("raplet: chain FEC responder requires a live chain")
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if name == "" {
		name = "chain-fec-responder"
	}
	return &ChainFECResponder{
		name:       name,
		live:       live,
		policy:     policy,
		streamID:   streamID,
		filterName: name + "-encoder",
		arqName:    name + "-history",
		current:    policy.Select(0),
	}, nil
}

// Name implements Responder.
func (r *ChainFECResponder) Name() string { return r.name }

// Active reports whether a repair stage (FEC encoder or ARQ history) is
// currently spliced into the chain.
func (r *ChainFECResponder) Active() bool {
	return r.live.Instance(compose.KindFECAdapt) != nil
}

// encoder returns the marker's live adaptive encoder instance, or nil.
func (r *ChainFECResponder) encoder() *fecproxy.AdaptiveEncoderFilter {
	enc, _ := r.live.Instance(compose.KindFECAdapt).(*fecproxy.AdaptiveEncoderFilter)
	return enc
}

// history returns the marker's live ARQ retransmission history, or nil.
func (r *ChainFECResponder) history() *arq.SenderFilter {
	hist, _ := r.live.Instance(compose.KindFECAdapt).(*arq.SenderFilter)
	return hist
}

// Current returns the code the responder has selected (K == N means no FEC).
func (r *ChainFECResponder) Current() fec.Params {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current
}

// Mechanism returns the repair mechanism the responder last reconciled the
// chain to.
func (r *ChainFECResponder) Mechanism() adapt.Mechanism {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mech
}

// LastLoss returns the most recent loss rate the responder acted on.
func (r *ChainFECResponder) LastLoss() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastLoss
}

// Retunes returns how many times the responder changed the chain's
// protection level (insertions, removals and in-place parameter switches).
func (r *ChainFECResponder) Retunes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retunes
}

// Handle implements Responder: it reconciles the live chain's marker with
// the policy's mechanism decision for the reported loss rate and RTT.
// Reconciliation is driven by the chain's *actual* state (what instance
// occupies the marker), never by comparing selections, so a policy whose
// cleanest rung is already an FEC level still gets its encoder inserted on
// the first event, and a mechanism change swaps the marker's occupant in one
// deactivate/activate pair under the splice lock.
func (r *ChainFECResponder) Handle(e Event) error {
	if e.Type != EventLossRate {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	loss := e.Value
	r.lastLoss = loss
	mech, params := r.policy.Decide(loss, e.RTTMillis)
	changed := false
	switch mech {
	case adapt.MechanismNone:
		// Clean link: deactivate the marker so the chain returns to the pure
		// relay path.
		removed, err := r.live.Deactivate(compose.KindFECAdapt)
		if err != nil {
			return fmt.Errorf("raplet: remove repair stage: %w", err)
		}
		changed = removed

	case adapt.MechanismARQ:
		if r.history() != nil {
			break // retransmission history already in place
		}
		// Swap out whatever occupies the marker (an FEC encoder, when the
		// link previously demanded parity), then splice in a fresh history.
		// (A stopped Base cannot be restarted, so each activation builds a
		// new filter; this is the control path.)
		if _, err := r.live.Deactivate(compose.KindFECAdapt); err != nil {
			return fmt.Errorf("raplet: clear marker for arq: %w", err)
		}
		if err := r.live.Activate(compose.KindFECAdapt, arq.NewSenderFilter(r.arqName, 0)); err != nil {
			if errors.Is(err, compose.ErrNoStage) {
				// The operator recomposed the marker away: adaptation is
				// switched off for this chain until a plan restores it.
				r.current, r.mech = params, mech
				return nil
			}
			return fmt.Errorf("raplet: insert arq history: %w", err)
		}
		changed = true

	case adapt.MechanismFEC:
		enc := r.encoder()
		if enc != nil {
			// Encoder already running: keep its loss view fresh; a level
			// change retunes in place (the new code lands on the next group
			// boundary).
			enc.SetLossRate(loss)
			changed = params != r.current
			break
		}
		// Loss demands FEC and none is in place: swap out a possible ARQ
		// history and activate the marker with a fresh adaptive encoder.
		if _, err := r.live.Deactivate(compose.KindFECAdapt); err != nil {
			return fmt.Errorf("raplet: clear marker for fec: %w", err)
		}
		fresh, err := fecproxy.NewAdaptiveEncoderFilter(r.filterName, r.policy, r.streamID)
		if err != nil {
			return err
		}
		fresh.SetLossRate(loss)
		if err := r.live.Activate(compose.KindFECAdapt, fresh); err != nil {
			if errors.Is(err, compose.ErrNoStage) {
				r.current, r.mech = params, mech
				return nil
			}
			return fmt.Errorf("raplet: insert adaptive encoder: %w", err)
		}
		changed = true
	}
	r.current, r.mech = params, mech
	if changed {
		r.retunes++
	}
	return nil
}

var (
	_ Responder = (*ThresholdResponder)(nil)
	_ Responder = (*ChainFECResponder)(nil)
	_ Responder = ResponderFunc{}
)
