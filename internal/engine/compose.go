package engine

import (
	"fmt"
	"net/netip"

	"rapidware/internal/compose"
	"rapidware/internal/multicast"
)

// EditSession applies one plan edit — the control plane's recompose, insert,
// remove or move — to a live session while traffic flows, and returns the
// canonical plan string after it. A parked session is unparked first: a
// control operation is activity, and it needs a chain to act on.
//
// Every edit runs under the session's mu, so edits serialize with each
// other, with park and close and with the session's adaptation loops. With
// no receiver the edit rewrites the trunk through the session's
// compose.Live, in the mode the trunk was attached with, and stages the edit
// keeps keep their running instances. With a receiver it rewrites that
// fan-out member's tail plan in the branch dialect and moves the member to
// the delivery cohort the new plan selects: a cohort's tail is shared, so a
// per-receiver edit is a membership move, never surgery on a chain other
// receivers are using.
func (e *Engine) EditSession(id uint32, receiver string, edit compose.Edit) (string, error) {
	s := e.table.lookup(id)
	if s == nil {
		return "", fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	s.ctlActivity.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, err := s.liveLocked()
	if err != nil {
		return "", fmt.Errorf("engine: session %d: %w", id, err)
	}
	if receiver == "" {
		if err := cs.live.Edit(edit); err != nil {
			return "", err
		}
		return cs.live.String(), nil
	}
	if cs.tree == nil {
		return "", fmt.Errorf("engine: session %d has no delivery branches", id)
	}
	ap, err := netip.ParseAddrPort(receiver)
	if err != nil {
		return "", fmt.Errorf("engine: receiver %q: %w", receiver, err)
	}
	return cs.tree.editMember(multicast.UnmapAddrPort(ap), edit)
}
