package compose

import (
	"fmt"
	"strconv"
)

// Edit is one live change to a chain's plan: it maps the current plan to the
// target, parsing any stage spec it carries against reg in mode. Whoever
// holds the chain supplies all three — Live.Edit its own registry, mode and
// plan under its splice lock, the engine a fan-out member's tail plan in the
// branch dialect — and validates and applies the result. The four
// constructors below are the control plane's whole vocabulary of changes, the
// paper's insert, remove and reorder plus a full rewrite.
type Edit func(reg *Registry, mode Mode, cur Plan) (Plan, error)

// Replace rewrites the whole plan to spec. Stages the new plan shares with
// the old (same kind and argument) keep their running instances.
func Replace(spec string) Edit {
	return func(reg *Registry, mode Mode, _ Plan) (Plan, error) {
		return ParseWith(reg, spec, mode)
	}
}

// Insert splices the one-stage spec stage (e.g. "delay=5ms") in at plan
// position pos; pos == Len appends.
func Insert(stage string, pos int) Edit {
	return func(reg *Registry, mode Mode, cur Plan) (Plan, error) {
		st, err := ParseStage(reg, stage, mode)
		if err != nil {
			return Plan{}, err
		}
		return cur.WithInsert(pos, st)
	}
}

// Remove drops the stage sel selects: a plan position ("1") or a stage kind
// (its first occurrence).
func Remove(sel string) Edit {
	return func(_ *Registry, _ Mode, cur Plan) (Plan, error) {
		pos, err := strconv.Atoi(sel)
		if err != nil {
			if pos = cur.Index(sel); pos < 0 {
				return Plan{}, fmt.Errorf("%w: %q", ErrNoStage, sel)
			}
		}
		return cur.WithRemove(pos)
	}
}

// Move relocates the stage at plan position from to position to (a position
// in the resulting plan), keeping its running instance.
func Move(from, to int) Edit {
	return func(_ *Registry, _ Mode, cur Plan) (Plan, error) {
		return cur.WithMove(from, to)
	}
}
