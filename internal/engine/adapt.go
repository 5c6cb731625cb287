package engine

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
	"rapidware/internal/raplet"
)

// sessionAdaptor is one session's closed adaptation plane: a raplet bus plus
// one receiverLoop per downstream receiver. Each loop pairs an observer fed
// by that receiver's own loss reports with a chain FEC responder reconciling
// the chain that carries that receiver's copy of the stream — the session
// trunk on unicast (echo/forward) sessions, the receiver's delivery branch on
// fan-out sessions. Per-receiver loops are what break the old worst-case
// coupling: one station's bad radio link retunes only its own branch. All
// chain surgery runs on the bus's dispatch goroutine; the relay hot path
// never sees the adaptor.
type sessionAdaptor struct {
	s      *Session
	bus    *raplet.Bus
	policy adapt.Policy

	// lastSweep (unix nanos) rate-limits staleness sweeps: aging only has to
	// resolve at the window's granularity, so sweeping every loop on every
	// report — O(receivers²) observer scans per report window — is limited to
	// a fraction of the window instead. The engine's maintenance tick stamps
	// it when it sweeps (park.go), pushing the next opportunistic
	// report-path sweep out past its own.
	lastSweep atomic.Int64

	// retuned counts every retune decision any of the session's responders
	// ever made, including loops that have since been removed. It is bumped
	// at the bus-dispatch choke point, so polling it (Session.AdaptRetunes)
	// is one atomic load — no lock shared with the report path.
	retuned atomic.Uint64

	mu    sync.Mutex
	loops map[string]*receiverLoop
}

// trunkReceiver keys the single loop of a unicast session, whose one
// legitimate receiver is already pinned by the data path (the session peer or
// the forward destination).
const trunkReceiver = ""

// newSessionAdaptor assembles and starts the plane for one chain incarnation
// of s. On unicast sessions it immediately installs the trunk loop on the
// incarnation's live chain; on fan-out sessions loops are added and removed
// with their delivery branches. Timer-driven staleness aging — needed so a
// receiver decays back to the clean-link path even when no report ever
// arrives to piggyback a sweep on — is driven by the engine's single
// maintenance ticker (park.go), not a goroutine here: at a million sessions
// one timer per session would dominate the scheduler.
func newSessionAdaptor(s *Session, cs *chainState, policy adapt.Policy) (*sessionAdaptor, error) {
	a := &sessionAdaptor{
		s:      s,
		bus:    raplet.NewBus(64),
		policy: policy,
		loops:  make(map[string]*receiverLoop),
	}
	if err := a.bus.Start(); err != nil {
		return nil, err
	}
	if !s.eng.branching {
		if _, err := a.addTrunkLoop(cs.live); err != nil {
			a.bus.Stop()
			return nil, err
		}
	}
	return a, nil
}

// repairResponder is the loop-facing surface of a receiver's repair state
// machine. Trunk loops use raplet.ChainFECResponder, which splices and
// retunes an encoder on the receiver's private chain; fan-out member loops
// use the engine's memberResponder, which moves the member between shared
// delivery cohorts instead. The accessors feed stats.
type repairResponder interface {
	Handle(raplet.Event) error
	Current() fec.Params
	Mechanism() adapt.Mechanism
	LastLoss() float64
	Retunes() uint64
	Active() bool
}

// sweepAll sweeps every loop's observer for receivers whose last report has
// gone stale. Called from the engine's maintenance tick and (rate-limited) the
// report path.
func (a *sessionAdaptor) sweepAll() {
	a.mu.Lock()
	loops := make([]*receiverLoop, 0, len(a.loops))
	for _, l := range a.loops {
		loops = append(loops, l)
	}
	a.mu.Unlock()
	for _, l := range loops {
		l.obs.Sweep()
	}
}

// receiverLoop is the adaptation loop of one downstream receiver: its
// observer republishes the receiver's reported loss on the session bus, and
// its responder splices/retunes/removes an adaptive FEC encoder on the chain
// serving that receiver. The subscriber filters bus events by source so
// sibling loops on the same bus never cross-trigger.
type receiverLoop struct {
	key  string
	obs  *raplet.WorstLossObserver
	resp repairResponder
	sub  raplet.ResponderFunc

	mu         sync.Mutex
	reports    uint64
	lastReport packet.Report
}

// addTrunkLoop builds, subscribes and primes the unicast session's loop on
// the given live chain; the responder splices its encoder at the plan's
// fec-adapt marker. Priming delivers a synchronous clean-link event so a
// policy whose cleanest rung already demands FEC (always-on protection) has
// its encoder spliced in before the chain carries its first packet; for
// ordinary ladders it is a no-op. Synchronous is safe: the chain is not yet
// receiving (the session is unregistered) and the fresh observer has
// published nothing the dispatch goroutine could race with.
func (a *sessionAdaptor) addTrunkLoop(live *compose.Live) (*receiverLoop, error) {
	resp, err := raplet.NewChainFECResponder(fmt.Sprintf("adapt:%d:%s", a.s.id, trunkReceiver), live, a.policy, a.s.id)
	if err != nil {
		return nil, err
	}
	return a.addLoop(trunkReceiver, resp, true)
}

// addMemberLoop builds and subscribes the loop for one fan-out member. No
// synchronous prime: the delivery tree already placed the member into the
// cohort the policy's clean-link decision selects, and the responder's Handle
// would re-enter the tree's lock.
func (a *sessionAdaptor) addMemberLoop(key string, resp repairResponder) (*receiverLoop, error) {
	return a.addLoop(key, resp, false)
}

// addLoop wires one receiver's observer → responder loop onto the session
// bus. The subscriber filters by the observer's source name so sibling loops
// never cross-trigger.
func (a *sessionAdaptor) addLoop(key string, resp repairResponder, prime bool) (*receiverLoop, error) {
	obsName := fmt.Sprintf("loss:%d:%s", a.s.id, key)
	l := &receiverLoop{key: key, obs: raplet.NewWorstLossObserver(obsName, a.bus), resp: resp}
	if window := a.s.eng.cfg.ReportStaleness; window > 0 {
		l.obs.SetStaleness(window, nil)
	}
	handle := func(e raplet.Event) error {
		before := resp.Retunes()
		err := resp.Handle(e)
		if d := resp.Retunes() - before; d != 0 {
			a.retuned.Add(d)
		}
		return err
	}
	l.sub = raplet.ResponderFunc{
		RName: obsName + ":responder",
		Fn: func(e raplet.Event) error {
			if e.Source != obsName {
				return nil
			}
			return handle(e)
		},
	}
	a.bus.Subscribe(raplet.EventLossRate, l.sub)
	if prime {
		if err := handle(raplet.Event{Type: raplet.EventLossRate, Source: obsName, Value: 0}); err != nil {
			a.bus.Unsubscribe(raplet.EventLossRate, l.sub.Name())
			return nil, err
		}
	}
	a.mu.Lock()
	a.loops[key] = l
	a.mu.Unlock()
	return l, nil
}

// removeLoop unsubscribes a departed receiver's loop from the bus and forgets
// it; the branch being torn down takes the spliced encoder with it.
func (a *sessionAdaptor) removeLoop(l *receiverLoop) {
	a.bus.Unsubscribe(raplet.EventLossRate, l.sub.Name())
	a.mu.Lock()
	delete(a.loops, l.key)
	a.mu.Unlock()
}

// report routes one receiver report to the reporter's own loop — keyed by the
// report datagram's (canonicalized) source address on fan-out sessions, the
// trunk loop otherwise — then sweeps every loop for receivers whose last
// report has gone stale, so a crashed station decays back to the clean-link
// path while any of its siblings still report. The observer records the
// report under the loop's key, not the source address: authorization already
// pinned the loop's one legitimate receiver, and a unicast session that roams
// must not keep the address it left as a second receiver.
func (a *sessionAdaptor) report(from netip.AddrPort, rep packet.Report) {
	key := trunkReceiver
	if a.s.eng.branching {
		key = from.String()
	}
	window := a.s.eng.cfg.ReportStaleness
	aging := window > 0
	if aging {
		// At most one full sweep per quarter window: enough resolution for
		// decay, without scanning every observer on every report.
		now := time.Now().UnixNano()
		last := a.lastSweep.Load()
		if now-last < int64(window/4) || !a.lastSweep.CompareAndSwap(last, now) {
			aging = false
		}
	}
	a.mu.Lock()
	loop := a.loops[key]
	a.mu.Unlock()
	if loop != nil {
		loop.report(rep)
	}
	if aging {
		a.sweepAll()
	}
}

// report feeds one report into the loop.
func (l *receiverLoop) report(rep packet.Report) {
	l.mu.Lock()
	l.reports++
	if rep.HighestSeq >= l.lastReport.HighestSeq {
		l.lastReport = rep
	}
	l.mu.Unlock()
	l.obs.ReportLink(l.key, rep.LossFraction(), rep.RTTMillis)
}

// snapshot returns the loop's report counters.
func (l *receiverLoop) snapshot() (reports uint64, last packet.Report) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reports, l.lastReport
}

// fill copies the loop's adaptation state into a receiver-stats entry.
func (l *receiverLoop) fill(st *metrics.ReceiverStats) {
	reports, last := l.snapshot()
	params := l.resp.Current()
	st.K, st.N = params.K, params.N
	st.Active = l.resp.Active()
	st.LossRate = l.resp.LastLoss()
	st.Reports = reports
	st.Retunes = l.resp.Retunes()
	st.HighestSeq = last.HighestSeq
	st.Mechanism = l.resp.Mechanism().String()
}

// retunes returns the monotonic count of retune decisions across the
// session's lifetime: encoder splices on trunk loops, cohort moves on member
// loops, including loops since removed. One atomic load, safe to busy-poll.
func (a *sessionAdaptor) retunes() uint64 {
	return a.retuned.Load()
}

// stop shuts the plane down, draining queued bus events. (The engine's
// maintenance tick may still call sweepAll concurrently — sweeps only read
// observers, which outlive the bus.)
func (a *sessionAdaptor) stop() {
	a.bus.Stop()
}

// stats aggregates the plane for control-protocol replies. With several
// receiver loops (a fan-out session) the protection columns report the most
// protected branch — the group's weakest receiver — while reports, receivers,
// retunes and expirations sum across loops; the per-receiver breakdown lives
// in SessionStats.Receivers.
func (a *sessionAdaptor) stats() *metrics.AdaptStats {
	a.mu.Lock()
	loops := make([]*receiverLoop, 0, len(a.loops))
	for _, l := range a.loops {
		loops = append(loops, l)
	}
	a.mu.Unlock()

	agg := &metrics.AdaptStats{K: 1, N: 1}
	worstN, worstLoss := -1, -1.0
	for _, l := range loops {
		// Responder state first: a report is counted before the event it
		// causes reaches the responder, so counters read afterwards are never
		// behind the state they explain.
		params, loss, active, mech := l.resp.Current(), l.resp.LastLoss(), l.resp.Active(), l.resp.Mechanism()
		agg.Retunes += l.resp.Retunes()
		reports, last := l.snapshot()
		agg.Reports += reports
		agg.Receivers += l.obs.Receivers()
		agg.Expired += l.obs.Expired()
		if last.HighestSeq > agg.HighestSeq {
			agg.HighestSeq = last.HighestSeq
		}
		if params.N > worstN || (params.N == worstN && loss > worstLoss) {
			worstN, worstLoss = params.N, loss
			agg.K, agg.N, agg.Active, agg.LossRate, agg.Mechanism = params.K, params.N, active, loss, mech.String()
		}
	}
	return agg
}

// memberResponder is a fan-out member's end of the adaptation plane: its
// receiverLoop's responder, whose loss-rate events re-decide the member's
// repair mechanism and move it between cohorts. It holds the member's decided
// state for stats — the same surface raplet.ChainFECResponder exposes for
// trunk loops — while the chain the decision selects is shared cohort
// machinery owned by the delivery tree.
type memberResponder struct {
	name string
	tree *deliveryTree
	m    *member

	mu       sync.Mutex
	current  fec.Params
	mech     adapt.Mechanism
	lastLoss float64
	retunes  uint64
	active   bool
}

// Name implements raplet.Responder.
func (r *memberResponder) Name() string { return r.name }

// Handle implements raplet.Responder: loss-rate events from the member's own
// observer re-decide its cohort. Runs on the session bus goroutine.
func (r *memberResponder) Handle(e raplet.Event) error {
	if e.Type != raplet.EventLossRate {
		return nil
	}
	return r.tree.retune(r.m, e.Value, e.RTTMillis)
}

// set records the outcome of one retune decision. moved increments the retune
// counter: a cohort move is the cohort world's equivalent of a splice.
func (r *memberResponder) set(params fec.Params, mech adapt.Mechanism, loss float64, active, moved bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.current, r.mech, r.lastLoss, r.active = params, mech, loss, active
	if moved {
		r.retunes++
	}
}

// decision returns the mechanism and parameters last decided for the member.
func (r *memberResponder) decision() (adapt.Mechanism, fec.Params) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mech, r.current
}

// setActive records a repair-engagement change caused by a plan rewrite
// rather than a policy decision (marker recomposed away or back in).
func (r *memberResponder) setActive(active bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active = active
}

// Current returns the code the member's loop last decided (K == N: no FEC).
func (r *memberResponder) Current() fec.Params {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current
}

// Mechanism returns the repair mechanism last decided for the member.
func (r *memberResponder) Mechanism() adapt.Mechanism {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mech
}

// LastLoss returns the most recent loss rate the member's loop acted on.
func (r *memberResponder) LastLoss() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastLoss
}

// Retunes returns how many times the member changed cohorts.
func (r *memberResponder) Retunes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retunes
}

// Active reports whether a repair stage currently protects the member's
// cohort.
func (r *memberResponder) Active() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active
}

var _ raplet.Responder = (*memberResponder)(nil)
