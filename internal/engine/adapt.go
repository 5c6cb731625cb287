package engine

import (
	"errors"
	"fmt"
	"sync"
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
//     level change swaps in a fresh fixed-code encoder;
//   - a fan-out member's loop moves the member to the delivery cohort its
//     decision selects (deliveryTree.assign), so one station's bad radio link
//     retunes only its own delivery.
//
// Aging runs from the engine's maintenance tick (park.go): a receiver whose
// last report is older than Config.ReportStaleness is expired and its loop
// re-decided for a clean link. A loop owns no goroutine, queue or timer.
//
// Lock order: Session.parkMu → receiverLoop.applyMu → the Live's splice lock
// or tree.mu → receiverLoop.mu. applyMu serializes one receiver's reports and
// sweeps from record to apply — on a shared socket two shard readers can each
// read a report from the same station — and is held across tree.assign. mu
// is a leaf: deliveryTree.stats takes it under tree.mu, so nothing holds it
// while calling into the tree or a chain.
//
// Nothing is applied to a retired incarnation. A trunk loop checks
// chainState.retired under applyMu, which retirement takes once after setting
// the flag; a member's assign checks it under tree.mu, which the tree's close
// takes to snapshot. Either way the parked snapshot is the last decision
// applied.

// receiverLoop is one downstream receiver's adaptation loop.
type receiverLoop struct {
	s  *Session
	cs *chainState
	m  *member // the fan-out member served; nil on a unicast trunk's loop

	applyMu sync.Mutex

	// mu guards the state below. decided and retunes are written under both
	// applyMu and mu, so either lock is enough to read them.
	mu sync.Mutex
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
// applies the decision it leads to.
func (l *receiverLoop) report(rep packet.Report, now int64) {
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	if l.cs.retired.Load() {
		return
	}
	l.mu.Lock()
	l.seen = now
	l.reports++
	if rep.HighestSeq >= l.last.HighestSeq {
		l.last = rep
	}
	l.mu.Unlock()
	l.logErr(l.apply(rep.LossFraction(), rep.RTTMillis))
}

// stale reports whether the receiver's live report is older than window at
// now.
func (l *receiverLoop) stale(now int64, window time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen != 0 && now-l.seen > int64(window)
}

// sweep expires the receiver's report when it is older than window at now and
// re-decides for a clean link: a station that went silent without leaving
// stops pinning its protection.
func (l *receiverLoop) sweep(now int64, window time.Duration) {
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	if l.cs.retired.Load() || !l.stale(now, window) {
		return
	}
	l.mu.Lock()
	l.seen = 0
	l.expired++
	l.mu.Unlock()
	l.logErr(l.apply(0, 0))
}

// apply decides for the given loss and round trip and applies the decision:
// a member moves cohorts, a trunk reconciles its marker. Caller holds applyMu
// (or owns a loop nothing else can reach yet).
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
// mechanism or level change swaps the marker's occupant: every FEC encoder
// has a fixed code, and the one leaving flushes its partial group as plain
// data frames. Every encoder numbers its groups from the session's counter,
// so the fresh one never repeats a group number. When an operator has
// recomposed the marker away the loop is dormant: decisions are recorded but
// engage nothing until a recompose restores it.
func (l *receiverLoop) reconcile(d decision) (changed bool, err error) {
	live := l.cs.live
	if d.mech == adapt.MechanismNone {
		return live.Deactivate(compose.KindFECAdapt)
	}
	switch cur := live.Instance(compose.KindFECAdapt).(type) {
	case *arq.SenderFilter:
		if d.mech == adapt.MechanismARQ {
			return false, nil
		}
	case *fecproxy.EncoderFilter:
		if d.mech == adapt.MechanismFEC && cur.Params() == d.params {
			return false, nil
		}
	}
	fresh, err := l.s.repairStage(d.mech, d.params, "")
	if err != nil {
		return false, err
	}
	// Swap out whatever holds the marker (the other mechanism's stage, or
	// another level's encoder) and splice in a fresh one: a stopped stage
	// cannot restart.
	if _, err := live.Deactivate(compose.KindFECAdapt); err != nil {
		return false, err
	}
	if err := live.Activate(compose.KindFECAdapt, fresh); err != nil {
		if errors.Is(err, compose.ErrNoStage) {
			return false, nil
		}
		return false, err
	}
	return true, nil
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
// change. Caller holds applyMu (and tree.mu for a member).
func (l *receiverLoop) record(d decision, retuned bool) {
	l.mu.Lock()
	l.decided = d
	if retuned {
		l.retunes++
	}
	l.mu.Unlock()
	if retuned {
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
// often one expired. A member's caller holds tree.mu.
func (l *receiverLoop) fill(st *metrics.ReceiverStats) (receivers int, expired uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
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
