package engine

import (
	"fmt"
	"net/netip"

	"rapidware/internal/compose"
	"rapidware/internal/multicast"
)

// Session-scoped composition: the control plane addresses a live session (and
// optionally one of its fan-out receivers) and rewrites its chain while
// traffic flows. Trunk operations compute the target plan and apply it
// through the session's compose.Live under its splice lock, serialized with
// the trunk's adaptation loop. Receiver operations rewrite the
// member's tail *plan* and reassign its delivery cohort — under cohort
// delivery a receiver's tail is shared state, so a per-receiver rewrite is a
// membership move, never surgery on a chain other receivers are using. The
// canonical plan string after the rewrite is returned for display.

// recomposeTrunk applies one plan rewrite to a session's trunk. rewrite maps
// the current plan to the target (validated against mode). A parked session
// is unparked first — a control operation is activity, and it needs a chain
// to act on. The whole operation holds the session's lifecycle lock, so trunk
// rewrites of one session serialize with each other and with park.
func (e *Engine) recomposeTrunk(id uint32, rewrite func(cur compose.Plan, mode compose.Mode) (compose.Plan, error)) (string, error) {
	s := e.table.lookup(id)
	if s == nil {
		return "", fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	s.ctlActivity.Add(1)
	s.parkMu.Lock()
	defer s.parkMu.Unlock()
	cs, err := s.liveLocked()
	if err != nil {
		return "", fmt.Errorf("engine: session %d: %w", id, err)
	}
	target, err := rewrite(cs.live.Plan(), e.trunkMode())
	if err != nil {
		return "", err
	}
	if err := cs.live.Recompose(target); err != nil {
		return "", err
	}
	return cs.live.String(), nil
}

// memberPlanOp applies a plan rewrite to one fan-out receiver's tail: resolve
// the session and its delivery tree, canonicalize the receiver address, and
// hand op to the tree, which validates the resulting plan and moves the
// member to the cohort it now selects.
func (e *Engine) memberPlanOp(id uint32, receiver string, op func(compose.Plan) (compose.Plan, error)) (string, error) {
	s := e.table.lookup(id)
	if s == nil {
		return "", fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	cs, err := s.ensureLive()
	if err != nil {
		return "", fmt.Errorf("engine: session %d: %w", id, err)
	}
	if cs.tree == nil {
		return "", fmt.Errorf("engine: session %d has no delivery branches", id)
	}
	ap, err := netip.ParseAddrPort(receiver)
	if err != nil {
		return "", fmt.Errorf("engine: receiver %q: %w", receiver, err)
	}
	s.ctlActivity.Add(1)
	return cs.tree.rewriteMemberPlan(multicast.UnmapAddrPort(ap), op)
}

// RecomposeSession atomically rewrites a live session chain to the target
// spec — the control plane's compose operation. On the trunk, stages the
// current plan already contains (same kind and argument) keep their running
// instances; the rest are built fresh and the drop-outs stopped, in one
// splice that never exposes a half-built chain to traffic. On a fan-out
// receiver the rewrite retargets the member's tail plan and recohorts it. It
// returns the canonical plan string after the rewrite.
func (e *Engine) RecomposeSession(id uint32, receiver, target string) (string, error) {
	if receiver != "" {
		return e.memberPlanOp(id, receiver, func(compose.Plan) (compose.Plan, error) {
			return compose.ParseWith(e.reg, target, compose.ModeBranch)
		})
	}
	return e.recomposeTrunk(id, func(_ compose.Plan, mode compose.Mode) (compose.Plan, error) {
		return compose.ParseWith(e.reg, target, mode)
	})
}

// InsertSessionStage splices one stage (spec syntax, e.g. "delay=5ms") into
// a live session chain at the given plan position.
func (e *Engine) InsertSessionStage(id uint32, receiver, stage string, pos int) (string, error) {
	if receiver != "" {
		return e.memberPlanOp(id, receiver, func(p compose.Plan) (compose.Plan, error) {
			st, err := compose.ParseStage(e.reg, stage, compose.ModeBranch)
			if err != nil {
				return compose.Plan{}, err
			}
			return p.WithInsert(pos, st)
		})
	}
	return e.recomposeTrunk(id, func(cur compose.Plan, mode compose.Mode) (compose.Plan, error) {
		st, err := compose.ParseStage(e.reg, stage, mode)
		if err != nil {
			return compose.Plan{}, err
		}
		return cur.WithInsert(pos, st)
	})
}

// RemoveSessionStage removes a stage from a live session chain. sel is a
// plan position or a stage kind (first match).
func (e *Engine) RemoveSessionStage(id uint32, receiver, sel string) (string, error) {
	if receiver != "" {
		return e.memberPlanOp(id, receiver, func(p compose.Plan) (compose.Plan, error) {
			return p.WithRemoveSelected(sel)
		})
	}
	return e.recomposeTrunk(id, func(cur compose.Plan, _ compose.Mode) (compose.Plan, error) {
		return cur.WithRemoveSelected(sel)
	})
}

// MoveSessionStage relocates a stage between plan positions of a live
// session chain, preserving its running instance.
func (e *Engine) MoveSessionStage(id uint32, receiver string, from, to int) (string, error) {
	if receiver != "" {
		return e.memberPlanOp(id, receiver, func(p compose.Plan) (compose.Plan, error) {
			return p.WithMove(from, to)
		})
	}
	return e.recomposeTrunk(id, func(cur compose.Plan, _ compose.Mode) (compose.Plan, error) {
		return cur.WithMove(from, to)
	})
}
