package engine

import (
	"errors"
	"fmt"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/arq"
	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/fecproxy"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// The adaptation plane is the paper's observer → responder pair run as one
// loop per downstream receiver: the peer or forward destination of a unicast
// trunk, and each member of a fan-out delivery tree. A receiver report is
// recorded, decided (adapt.Policy.Decide) and applied on the shard reader
// that read it:
//
//   - a unicast trunk's loop reconciles the fec-adapt marker on the session's
//     compose.Live, splicing an FEC encoder or an ARQ history in or out; a
//     level change swaps in a fresh fixed-code encoder in one splice;
//   - a fan-out member's loop moves the member to the delivery cohort its
//     decision selects (deliveryTree.assign), so one station's bad radio link
//     retunes only its own delivery.
//
// Aging runs from the engine's maintenance tick (park.go): a receiver whose
// last report is older than Config.ReportStaleness is expired and its loop
// re-decided for a clean link. A loop owns no goroutine, queue or timer.
//
// Lock order, two levels: Session.mu → (the trunk Live's splice lock |
// tree.mu) → executor locks. Session.mu serializes every step of every loop
// of a session — report, sweep and apply, on trunk and member loops alike —
// with park, unpark, close, edits and Stats, and guards the loops' state. On
// a shared socket two shard readers can each read a report from the same
// station; they take turns on it. Nothing that holds an executor lock or
// tree.mu takes Session.mu: dispatch (tree.mu inside the trunk's executor
// lock, a tail's executor lock inside tree.mu), membership reconciliation,
// timer releases and NACK answers keep to their own locks.
//
// Nothing is applied to a retired incarnation. Park and close retire it
// under Session.mu and leave Session.cs without it, and a report or sweep
// acts only on the current incarnation, under the same lock. A member's
// assign also checks tree.closed under tree.mu. Either way the parked
// snapshot is the last decision applied.

// receiverLoop is one downstream receiver's adaptation loop. Its state is
// guarded by the session's mu.
type receiverLoop struct {
	s  *Session
	cs *chainState
	m  *member // the fan-out member served; nil on a unicast trunk's loop

	// What the receiver reported.
	seen    int64 // unix nanos of its live report; 0 when none (never, or expired)
	reports uint64
	expired uint64
	last    packet.Report // the report with the highest sequence number
	// What was decided and applied.
	decided decision
	retunes uint64
}

// decision is one adaptation outcome: the repair mechanism, its code, and the
// reported loss it was decided on.
type decision struct {
	mech   adapt.Mechanism
	params fec.Params
	loss   float64
}

// newTrunkLoop builds a unicast session's loop on cs and primes it with a
// clean-link decision, so a policy whose cleanest rung already demands FEC
// has its encoder spliced in before the chain carries its first packet. The
// session is not registered yet, so no report can reach the loop.
func newTrunkLoop(s *Session, cs *chainState) (*receiverLoop, error) {
	l := &receiverLoop{s: s, cs: cs}
	return l, l.apply(0, 0)
}

// report records one receiver report received at now (unix nanos) and
// applies the decision it leads to. Caller holds the session's mu.
func (l *receiverLoop) report(rep packet.Report, now int64) {
	l.seen = now
	l.reports++
	if rep.HighestSeq >= l.last.HighestSeq {
		l.last = rep
	}
	l.logErr(l.apply(rep.LossFraction(), rep.RTTMillis))
}

// stale reports whether the receiver's live report is older than window at
// now. Caller holds the session's mu.
func (l *receiverLoop) stale(now int64, window time.Duration) bool {
	return l.seen != 0 && now-l.seen > int64(window)
}

// sweep expires the receiver's report when it is older than window at now and
// re-decides for a clean link: a station that went silent without leaving
// stops pinning its protection. Caller holds the session's mu.
func (l *receiverLoop) sweep(now int64, window time.Duration) {
	if !l.stale(now, window) {
		return
	}
	l.seen = 0
	l.expired++
	l.logErr(l.apply(0, 0))
}

// sweep expires the session's receivers whose last report is older than
// window at now.
func (s *Session) sweep(now int64, window time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.cs.Load()
	if cs == nil {
		return
	}
	if cs.trunk != nil {
		cs.trunk.sweep(now, window)
	}
	if cs.tree != nil {
		cs.tree.sweep(now, window)
	}
}

// apply decides for the given loss and round trip and applies the decision:
// a member moves cohorts, a trunk reconciles its marker. Caller holds the
// session's mu (or owns a loop nothing else can reach yet).
func (l *receiverLoop) apply(loss float64, rttMillis uint32) error {
	mech, params := l.s.eng.policy.Decide(loss, rttMillis)
	d := decision{mech: mech, params: params, loss: loss}
	if l.m != nil {
		if err := l.cs.tree.assign(l.m, d, true); err != nil && !errors.Is(err, errDeparted) {
			return err
		}
		return nil
	}
	changed, err := l.reconcile(d)
	if err != nil {
		return err
	}
	l.record(d, changed)
	return nil
}

// reconcile brings the trunk's fec-adapt marker in line with d, entirely as
// plan operations on the session's compose.Live, and reports whether the
// protection level changed. It follows the chain's actual state — what
// occupies the marker — never the previous decision, so a policy whose
// cleanest rung is FEC still gets its encoder on the first decision, and a
// mechanism or level change swaps the marker's occupant in one splice: every
// FEC encoder has a fixed code, and the one leaving flushes its partial group
// as plain data frames before the fresh one takes its place, so no frame
// passes the marker with neither. Every encoder numbers its groups from the
// session's counter, so the fresh one never repeats a group number. When an
// operator has recomposed the marker away the loop is dormant: decisions are
// recorded but engage nothing until a recompose restores it.
func (l *receiverLoop) reconcile(d decision) (changed bool, err error) {
	live := l.cs.live
	switch cur := live.Instance(compose.KindFECAdapt).(type) {
	case nil:
		if d.mech == adapt.MechanismNone {
			return false, nil
		}
	case *arq.SenderFilter:
		if d.mech == adapt.MechanismARQ {
			return false, nil
		}
	case *fecproxy.EncoderFilter:
		if d.mech == adapt.MechanismFEC && cur.Params() == d.params {
			return false, nil
		}
	}
	// A stopped stage cannot restart, so every change brings a fresh one
	// (none, for a clean link).
	fresh, err := l.s.repairStage(d.mech, d.params, "")
	if err != nil {
		return false, err
	}
	changed, err = live.Occupy(compose.KindFECAdapt, fresh)
	if errors.Is(err, compose.ErrNoStage) {
		return false, nil
	}
	return changed, err
}

// repairStage builds the stage a decision activates at a fec-adapt marker —
// an FEC encoder at code params or an ARQ history — named "fec:<id><suffix>"
// or "arq:<id><suffix>"; nil for a clean link. It is the one mapping from a
// decision to a stage, for a unicast trunk's marker (no suffix) and for a
// delivery cohort's tail (":c<n>"). Every encoder numbers its FEC groups from
// the session's counter, so a level change never repeats a group number.
func (s *Session) repairStage(mech adapt.Mechanism, params fec.Params, suffix string) (filter.Filter, error) {
	switch mech {
	case adapt.MechanismFEC:
		enc, err := fecproxy.NewEncoderFilter(fmt.Sprintf("fec:%d%s", s.id, suffix), params, s.id, &s.groups)
		if err != nil {
			return nil, err
		}
		return enc, nil
	case adapt.MechanismARQ:
		return arq.NewSenderFilter(fmt.Sprintf("arq:%d%s", s.id, suffix), 0), nil
	}
	return nil, nil
}

// record stores an applied decision; retuned counts it as a protection
// change. Caller holds the session's mu (and tree.mu for a member).
func (l *receiverLoop) record(d decision, retuned bool) {
	l.decided = d
	if retuned {
		l.retunes++
		l.cs.retunes.Add(1)
	}
}

// logErr logs a decision that failed to apply.
func (l *receiverLoop) logErr(err error) {
	if err != nil {
		l.s.eng.logf("session %d: adaptation: %v", l.s.id, err)
	}
}

// fill copies the loop's state into a receiver's stats entry and returns what
// only the session view sums: whether the receiver has a live report, and how
// often one expired. Caller holds the session's mu, and tree.mu for a member.
func (l *receiverLoop) fill(st *metrics.ReceiverStats) (receivers int, expired uint64) {
	d := l.decided
	st.K, st.N = d.params.K, d.params.N
	st.LossRate = d.loss
	st.Mechanism = d.mech.String()
	st.Reports = l.reports
	st.Retunes = l.retunes
	st.HighestSeq = l.last.HighestSeq
	if l.m != nil {
		st.Active = effectiveMech(l.m.plan, d.mech) != adapt.MechanismNone
	} else {
		// Read off the chain: a recompose can take the marker's stage away.
		st.Active = l.cs.live.Instance(compose.KindFECAdapt) != nil
	}
	if l.seen != 0 {
		receivers = 1
	}
	return receivers, l.expired
}

// adaptStats is a session's view of its receivers' loops: the protection
// columns follow the most protected receiver — the group's weakest — while
// reports, receivers, retunes and expirations sum. The per-receiver breakdown
// lives in SessionStats.Receivers.
func adaptStats(loops ...*receiverLoop) *metrics.AdaptStats {
	agg := &metrics.AdaptStats{K: 1, N: 1}
	worstN, worstLoss := -1, -1.0
	for _, l := range loops {
		var rx metrics.ReceiverStats
		receivers, expired := l.fill(&rx)
		agg.Reports += rx.Reports
		agg.Retunes += rx.Retunes
		agg.Receivers += receivers
		agg.Expired += expired
		agg.HighestSeq = max(agg.HighestSeq, rx.HighestSeq)
		if rx.N > worstN || (rx.N == worstN && rx.LossRate > worstLoss) {
			worstN, worstLoss = rx.N, rx.LossRate
			agg.K, agg.N, agg.Active, agg.LossRate, agg.Mechanism = rx.K, rx.N, rx.Active, rx.LossRate, rx.Mechanism
		}
	}
	return agg
}
