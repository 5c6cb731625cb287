package compose

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rapidware/internal/filter"
	"rapidware/internal/metrics"
)

// Errors returned by Live operations.
var (
	// ErrNoStage is returned when an operation names a stage (or marker) the
	// plan does not contain.
	ErrNoStage = errors.New("compose: no such stage in the plan")
)

// Interior is the executor beneath a Live: whatever runs the plan's stage
// instances and can swap its whole interior in one transaction — a
// *filter.FrameChain, or the *filter.Chain stream proxy around one.
type Interior interface {
	// SetInterior atomically replaces the executor's stages: instances present
	// before and after keep their state, drop-outs are flushed downstream and
	// retired, and nothing relayed is lost.
	SetInterior(stages []filter.Filter) error
}

// Live binds a running filter chain to its plan and keeps the two consistent
// under one mutex — the chain's splice lock. Every structural mutation of the
// chain (a control-plane Edit, an adaptation responder changing its marker's
// occupant) is a plan rewrite applied here as one atomic step: instances
// that survive the rewrite keep their state, and the executor's SetInterior
// never exposes a half-built chain to traffic.
//
// The relay hot path never touches a Live; recomposition cost is paid only on
// the control path.
type Live struct {
	mu   sync.Mutex
	exec Interior
	reg  *Registry
	env  Env
	mode Mode
	plan Plan
	// inst holds the filter instance realizing each plan stage, index-aligned
	// with plan.Stages; nil for a marker whose responder has not activated an
	// instance.
	inst []filter.Filter

	// view is the last successfully applied (plan, instances) pair, set by
	// Attach and every mutation. Read paths — Plan, String, Instance,
	// StageStats, the control plane's session listing — load it without
	// taking mu, so a recompose (which waits for the executor's lock and for
	// departing stages to flush) never stalls observation.
	view atomic.Pointer[liveView]
}

// liveView is one immutable published state of a Live.
type liveView struct {
	plan Plan
	inst []filter.Filter
}

// emptyView is the published state of every stage-less Live: readers never
// write a view, so all of them share it.
var emptyView liveView

// publishLocked snapshots the current state for lock-free readers. Caller
// holds l.mu and has fully applied the state it publishes.
func (l *Live) publishLocked() {
	v := &emptyView
	if len(l.plan.Stages) > 0 {
		v = &liveView{plan: l.plan.Clone(), inst: append([]filter.Filter(nil), l.inst...)}
	}
	l.view.Store(v)
}

// Attach builds plan's interior into exec and returns the Live managing it.
// mode governs which stages later rewrites may contain.
func Attach(exec Interior, reg *Registry, env Env, mode Mode, plan Plan) (*Live, error) {
	l := new(Live)
	if err := l.Attach(exec, reg, env, mode, plan); err != nil {
		return nil, err
	}
	return l, nil
}

// Attach is the function Attach on a zero Live its owner embeds, so the two
// are one allocation; a stage-less plan allocates nothing more.
func (l *Live) Attach(exec Interior, reg *Registry, env Env, mode Mode, plan Plan) error {
	if exec == nil {
		return errors.New("compose: attach requires an executor")
	}
	if reg == nil {
		reg = Default()
	}
	l.exec, l.reg, l.env, l.mode = exec, reg, env, mode
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recomposeLocked(plan)
}

// Plan returns a copy of the current plan. Like all read paths it serves
// from the published snapshot and never blocks behind an in-flight splice.
func (l *Live) Plan() Plan {
	return l.view.Load().plan.Clone()
}

// String returns the current plan's canonical spec string.
func (l *Live) String() string {
	return l.view.Load().plan.String()
}

// Mode returns the validation mode rewrites of this chain are checked
// against.
func (l *Live) Mode() Mode { return l.mode }

// Registry returns the registry the chain's stages are built through.
func (l *Live) Registry() *Registry { return l.reg }

// Recompose atomically rewrites the chain to the target plan. Stages whose
// kind and argument match a current stage keep their live filter instance
// (counters, FEC group state and all); an active marker instance survives as
// long as the target retains the marker. Everything else is built fresh
// through the registry, and stages that fall out of the plan are flushed and
// retired.
func (l *Live) Recompose(target Plan) error {
	return l.Edit(func(*Registry, Mode, Plan) (Plan, error) { return target, nil })
}

// Edit is Recompose with the target derived by e from the current plan —
// in the chain's own registry and mode — under the same splice lock, so an
// insert, remove or move never loses a rewrite that landed between reading
// the plan and applying the edit.
func (l *Live) Edit(e Edit) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target, err := e(l.reg, l.mode, l.plan.Clone())
	if err != nil {
		return err
	}
	return l.recomposeLocked(target)
}

// Occupy makes f the instance of the plan's marker stage with the given kind
// — nil vacates it — in one splice, and reports whether the occupant changed:
// the adaptation responder's way of expressing "protection on", "off" or "at
// another level" as a plan operation. The executor's one SetInterior flushes
// and retires the departing occupant and wires in f between the same two
// frames, so no frame passes the marker with neither. A missing marker (an
// operator recomposed it away) fails with ErrNoStage, unless f is nil: there
// is nothing to vacate. The instance counts its drops into the Live's
// Env.Counters, as built stages do.
func (l *Live) Occupy(kind string, f filter.Filter) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := l.markerIndexLocked(kind)
	if idx < 0 {
		if f == nil {
			return false, nil
		}
		return false, fmt.Errorf("%w: marker %q", ErrNoStage, kind)
	}
	prev := l.inst[idx]
	if prev == f {
		return false, nil
	}
	if f != nil {
		l.env.countDrops(f)
	}
	l.inst[idx] = f
	if err := l.applyLocked(); err != nil {
		l.inst[idx] = prev
		return false, err
	}
	l.publishLocked()
	return true, nil
}

// Instance returns the live filter instance of the first stage with the
// given kind (markers included), or nil when the plan has no such stage or
// the marker is vacant. Served from the published snapshot: a caller that
// needs the authoritative state (the responder deciding what to occupy the
// marker with) relies on the mutation itself re-checking under the splice
// lock.
func (l *Live) Instance(kind string) filter.Filter {
	v := l.view.Load()
	for i, st := range v.plan.Stages {
		if st.Kind == kind {
			return v.inst[i]
		}
	}
	return nil
}

// StageStats snapshots the per-stage view the control plane reports: one
// entry per plan stage, in order, with the live instance's name and I/O
// counters when one is spliced in.
func (l *Live) StageStats() []metrics.StageStats {
	v := l.view.Load()
	out := make([]metrics.StageStats, len(v.plan.Stages))
	for i, st := range v.plan.Stages {
		s := metrics.StageStats{Kind: st.Kind, Spec: st.String()}
		if f := v.inst[i]; f != nil {
			s.Name = f.Name()
			s.Active = f.Running()
			s.InBytes, s.OutBytes = f.IOBytes()
		}
		out[i] = s
	}
	return out
}

// markerIndexLocked returns the plan index of the marker stage with the
// given kind, or -1.
func (l *Live) markerIndexLocked(kind string) int {
	for i, st := range l.plan.Stages {
		if st.Kind != kind {
			continue
		}
		if d, ok := l.reg.Lookup(st.Kind); ok && d.Marker {
			return i
		}
	}
	return -1
}

// recomposeLocked validates target, carries over every matching live
// instance, builds the rest, and applies the new interior to the executor in
// one SetInterior transaction. Caller holds l.mu.
func (l *Live) recomposeLocked(target Plan) error {
	if err := l.reg.Validate(target, l.mode); err != nil {
		return err
	}
	// Match target stages to current instances by identity (kind + canonical
	// arg), each instance used at most once, scanning in order so duplicates
	// pair up stably and a moved stage keeps its instance.
	used := make([]bool, len(l.inst))
	next := make([]filter.Filter, len(target.Stages))
	for i, st := range target.Stages {
		for j, cur := range l.plan.Stages {
			if !used[j] && cur.key() == st.key() {
				next[i], used[j] = l.inst[j], true
				break
			}
		}
	}
	for i, st := range target.Stages {
		if next[i] != nil {
			continue
		}
		if d, ok := l.reg.Lookup(st.Kind); ok && d.Marker {
			continue // markers start inactive; responders activate them
		}
		f, err := l.reg.Build(l.env, st)
		if err != nil {
			return err
		}
		next[i] = f
	}
	prevPlan, prevInst := l.plan, l.inst
	l.plan, l.inst = target.Clone(), next
	if err := l.applyLocked(); err != nil {
		l.plan, l.inst = prevPlan, prevInst
		return err
	}
	l.publishLocked()
	return nil
}

// applyLocked pushes the current instance set into the executor as its new
// interior. Caller holds l.mu.
func (l *Live) applyLocked() error {
	interior := make([]filter.Filter, 0, len(l.inst))
	for _, f := range l.inst {
		if f != nil {
			interior = append(interior, f)
		}
	}
	return l.exec.SetInterior(interior)
}
