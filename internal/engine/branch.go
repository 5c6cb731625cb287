package engine

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/arq"
	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// A fan-out session's data plane is a delivery tree: the trunk's output is
// dispatched to delivery *cohorts* — one shared tail per distinct protection
// level, not one per receiver. Receivers whose tail plans canonicalize
// identically and whose adaptation loops decided the same repair mechanism
// (same (n,k) FEC code, same ARQ history, or none) are members of the same
// cohort: a trunk frame traverses the cohort's tail once, is FEC-encoded once,
// and fans to every member through the owning shard's flush — same payload,
// N address stamps. Receivers whose effective tail is empty (every stage a
// dormant marker, no repair engaged) share the bypass cohort, which has no
// tail at all: trunk output goes straight into the shard's queue, sent with
// the reader's batch.
//
// Everything runs inline on the goroutine that ran the trunk. A cohort's tail
// is a filter.FrameChain that dispatch runs under the tree's lock, and a
// frame's destinations are the cohort's view loaded when the frame is
// enqueued. Every membership change happens under that same lock, so it falls
// between two frames: a member moving cohorts gets each frame from exactly
// one of them. Before a cohort's membership changes its tail is flushed, so
// frames it holds — a partial FEC group, frames a timed stage has not
// released — go out to the members they entered for.

// errDeparted reports a member that left the tree while a cohort was being
// built for it.
var errDeparted = errors.New("engine: receiver left the delivery tree")

// member is one fan-out receiver: its address, its tail plan, its exact
// per-receiver counters, and its adaptation loop state. A retune (or a
// per-receiver recompose) moves the member between cohorts.
type member struct {
	ap   netip.AddrPort
	plan compose.Plan // this member's tail plan (guarded by tree.mu)

	counters metrics.ReceiverCounters
	nack     arq.Budget // retransmission budget (see handleNack)

	// cohort is the cohort currently serving this member (guarded by
	// tree.mu); nil only when cohort construction failed.
	cohort *cohort
	// loop is the member's adaptation loop, set at join and never replaced;
	// nil without the feedback plane.
	loop *receiverLoop
}

// target is one destination of a cohort's fan-out: the address the shard
// flush stamps and the receiver counters it credits.
type target struct {
	dst netip.AddrPort
	rx  *metrics.ReceiverCounters
}

// cohort is one shared delivery tail: a FrameChain running the tail plan,
// with the level's repair stage activated at the fec-adapt marker, or — for
// the empty effective tail — the bypass lane, which has no chain.
type cohort struct {
	key    string
	tree   *deliveryTree
	frames *filter.FrameChain // nil: the bypass lane
	live   *compose.Live

	// members is the membership (guarded by tree.mu); view is its
	// destinations, republished — never mutated — after every change.
	members []*member
	view    atomic.Pointer[[]target]
}

// deliveryTree owns a session's members and cohorts and keeps them reconciled
// with the engine's fan-out group.
type deliveryTree struct {
	s *Session
	// cs is the chain incarnation this tree belongs to: member priming reads
	// its live trunk's replay stage, and members' retunes count toward it. A
	// parked session has no tree; unpark builds a fresh one.
	cs *chainState

	mu      sync.Mutex // held by dispatch for every frame, and by every membership change
	members map[netip.AddrPort]*member
	cohorts map[string]*cohort
	list    []*cohort // the cohorts, for dispatch
	version uint64    // AddrGroup version last reconciled; 0 = never
	closed  bool

	serial atomic.Uint64 // names cohort stages
}

func newDeliveryTree(s *Session, cs *chainState) *deliveryTree {
	return &deliveryTree{
		s:       s,
		cs:      cs,
		members: make(map[netip.AddrPort]*member),
		cohorts: make(map[string]*cohort),
	}
}

// cohortKeyFor is a cohort's identity: the canonical tail plan plus the
// repair mechanism the members' adaptation loops decided. Two receivers with
// equal keys are interchangeable consumers of one encoded stream.
func cohortKeyFor(plan compose.Plan, mech adapt.Mechanism, params fec.Params) string {
	switch mech {
	case adapt.MechanismFEC:
		return plan.Key() + "\x02fec:" + params.String()
	case adapt.MechanismARQ:
		return plan.Key() + "\x02arq"
	}
	return plan.Key()
}

// effectiveMech is the repair mechanism a plan actually engages: a plan
// without a fec-adapt marker forces none — the operator recomposed repair
// away, so the member's loop goes dormant until the marker is back.
func effectiveMech(plan compose.Plan, mech adapt.Mechanism) adapt.Mechanism {
	if !plan.Has(compose.KindFECAdapt) {
		return adapt.MechanismNone
	}
	return mech
}

// allMarkers reports whether every stage of a plan is a marker — a plan whose
// chain interior would be empty, making its clean-link cohort eligible for
// the bypass lane.
func (e *Engine) allMarkers(plan compose.Plan) bool {
	for _, st := range plan.Stages {
		d, ok := e.reg.Lookup(st.Kind)
		if !ok || !d.Marker {
			return false
		}
	}
	return true
}

// dispatch hands one trunk output frame to every cohort, reconciling
// membership first if the fan-out group changed. The trunk sink reserved
// session-ID headroom, so the ID is stamped here once and the whole buffer is
// one ready datagram. One cohort takes the buffer itself and the others get a
// copy, because a tail may rewrite its frame in place while the queue still
// holds the original. dispatch consumes b.
func (t *deliveryTree) dispatch(b *packet.Buf) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s.eng.group.Version() != t.version {
		t.reconcileLocked()
	}
	if len(t.list) == 0 {
		t.s.counters.Drops.Add(1)
		b.Release()
		return
	}
	packet.PutSessionID(b.B, t.s.id)
	last := len(t.list) - 1
	for _, c := range t.list[:last] {
		cp := packet.GetBuf(len(b.B))
		copy(cp.B, b.B)
		c.deliver(cp)
	}
	t.list[last].deliver(b)
}

// reconcile aligns the member set with the fan-out group's membership.
func (t *deliveryTree) reconcile() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reconcileLocked()
}

// reconcileLocked does reconcile's work: departed members leave their
// cohorts (their adaptation loops with them), and new members are placed into
// the cohort their tail plan and initial policy decision select. Runs on the
// trunk's dispatch (version check) and the feedback path. Caller holds t.mu.
func (t *deliveryTree) reconcileLocked() {
	members, v := t.s.eng.group.SnapshotVersion()
	if v == t.version || t.closed {
		return
	}
	want := make(map[netip.AddrPort]bool, len(members))
	for _, ap := range members {
		want[ap] = true
	}
	for ap, m := range t.members {
		if !want[ap] {
			t.removeMemberLocked(m)
		}
	}
	for _, ap := range members {
		if t.members[ap] == nil {
			t.addMemberLocked(ap)
		}
	}
	t.version = v
}

// addMemberLocked admits one new fan-out member: it is placed into the cohort
// selected by the engine's branch plan and the policy's clean-link decision
// (so always-on protection ladders get their encoder cohort from the first
// frame), it gets its adaptation loop, and its delivery is primed from the
// trunk's replay history. Joins are rare, so a cohort they need is built
// under the lock. Caller holds t.mu.
func (t *deliveryTree) addMemberLocked(ap netip.AddrPort) {
	e := t.s.eng
	m := &member{ap: ap, plan: e.branchPlan}
	d := decision{mech: adapt.MechanismNone, params: fec.Params{K: 1, N: 1}}
	if e.adaptOn {
		d.mech, d.params = e.policy.Decide(0, 0)
	}
	effective := effectiveMech(m.plan, d.mech)
	key := cohortKeyFor(m.plan, effective, d.params)
	c := t.cohorts[key]
	if c == nil {
		var err error
		if c, err = t.newCohort(key, m.plan, effective, d.params); err != nil {
			// The member gets nothing until membership changes again; branch
			// specs are validated at engine construction, so this is a
			// resource-level failure worth surfacing.
			t.s.shard.counters.chainErrors.Add(1)
			e.logf("session %d: member %s: %v", t.s.id, ap, err)
			return
		}
		t.cohorts[key] = c
	}
	if e.adaptOn {
		m.loop = &receiverLoop{s: t.s, cs: t.cs, m: m, decided: d}
	}
	t.members[ap] = m
	t.moveLocked(m, c)
	t.primeLocked(m)
}

// removeMemberLocked evicts a departed member from its cohort; a decision its
// loop is still applying finds it gone. Caller holds t.mu.
func (t *deliveryTree) removeMemberLocked(m *member) {
	t.moveLocked(m, nil)
	delete(t.members, m.ap)
}

// moveLocked puts m into cohort to (nil: out of the tree). Both cohorts are
// flushed first, so what they hold goes out to the members it entered for;
// then their views are republished. A cohort left with no members is closed.
// Caller holds t.mu, so no frame is dispatched in between.
func (t *deliveryTree) moveLocked(m *member, to *cohort) {
	if from := m.cohort; from != nil {
		from.drain(false)
		for i, cm := range from.members {
			if cm == m {
				from.members = append(from.members[:i], from.members[i+1:]...)
				break
			}
		}
		from.publish()
		if len(from.members) == 0 {
			delete(t.cohorts, from.key)
			from.drain(true)
		}
	}
	if to != nil {
		to.drain(false)
		to.members = append(to.members, m)
		to.publish()
	}
	m.cohort = to
	t.list = t.list[:0]
	for _, c := range t.cohorts {
		t.list = append(t.list, c)
	}
}

// assign moves m into the cohort its plan and decision d select, and records
// d on m's loop in the same critical section, so the tree's stats and the
// parked snapshot never disagree with the membership; retune counts a move as
// a retune of the loop (a policy decision, not a plan rewrite). A cohort the
// tree does not have yet is built with t.mu released — a chain build is the
// slow part of a retune, and dispatch must not wait behind it — so the choice
// is re-made once the lock is back, and a cohort built for a choice that went
// stale meanwhile is discarded. It returns errDeparted if m left the tree or
// the tree is closed. Caller holds the session's mu.
func (t *deliveryTree) assign(m *member, d decision, retune bool) error {
	var spare *cohort
	defer func() {
		if spare != nil {
			spare.drain(true)
		}
	}()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed || t.members[m.ap] != m {
			return errDeparted
		}
		effective := effectiveMech(m.plan, d.mech)
		key := cohortKeyFor(m.plan, effective, d.params)
		moved := false
		if m.cohort == nil || m.cohort.key != key {
			c := t.cohorts[key]
			if c == nil && spare != nil && spare.key == key {
				c, spare = spare, nil
				t.cohorts[key] = c
			}
			if c == nil {
				plan := m.plan
				t.mu.Unlock()
				if spare != nil {
					spare.drain(true)
				}
				var err error
				spare, err = t.newCohort(key, plan, effective, d.params)
				t.mu.Lock()
				if err != nil {
					return err
				}
				continue
			}
			t.moveLocked(m, c)
			moved = true
		}
		if m.loop != nil {
			m.loop.record(d, moved && retune)
		}
		return nil
	}
}

// editMember applies a control-plane edit to one member's tail plan, in the
// branch dialect, and reassigns its cohort: a per-receiver edit is a
// membership move, not chain surgery. Returns the canonical plan string after
// the edit. Caller holds the session's mu, so the receiver's own retunes wait
// until the move is done.
func (t *deliveryTree) editMember(ap netip.AddrPort, edit compose.Edit) (string, error) {
	t.mu.Lock()
	m := t.members[ap]
	if m == nil {
		t.mu.Unlock()
		return "", fmt.Errorf("engine: session %d has no branch for receiver %s", t.s.id, ap)
	}
	reg := t.s.eng.reg
	plan, err := edit(reg, compose.ModeBranch, m.plan)
	if err == nil {
		err = reg.Validate(plan, compose.ModeBranch)
	}
	if err == nil {
		m.plan = plan
	}
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	d := decision{mech: adapt.MechanismNone, params: fec.Params{K: 1, N: 1}}
	if l := m.loop; l != nil {
		d = l.decided
	}
	if err := t.assign(m, d, false); err != nil {
		return "", err
	}
	return plan.String(), nil
}

// newCohort builds the shared tail for one protection level. The clean-link
// cohort of an all-marker plan is the bypass lane (no chain); any other key
// gets a FrameChain with the plan's stages and — for FEC or ARQ — the level's
// repair stage activated at the fec-adapt marker. A cohort's FEC code is
// fixed: a level change is a membership move to another cohort, so one encode
// always serves every member, and the encoder numbers its groups from the
// session's counter, so a member moving between cohorts never sees a group
// number twice. It takes no lock.
func (t *deliveryTree) newCohort(key string, plan compose.Plan, mech adapt.Mechanism, params fec.Params) (*cohort, error) {
	s := t.s
	e := s.eng
	c := &cohort{key: key, tree: t}
	c.publish()
	if mech == adapt.MechanismNone && e.allMarkers(plan) {
		return c, nil
	}
	suffix := fmt.Sprintf(":c%d", t.serial.Add(1))
	c.frames = filter.NewFrameChain(c.send)
	live, err := compose.Attach(c.frames, e.reg, s.composeEnv(suffix), compose.ModeBranch, plan)
	if err != nil {
		return nil, fmt.Errorf("cohort tail: %w", err)
	}
	c.live = live
	repair, err := s.repairStage(mech, params, suffix)
	if err != nil {
		c.drain(true)
		return nil, fmt.Errorf("cohort fec: %w", err)
	}
	if repair != nil {
		if _, err := live.Occupy(compose.KindFECAdapt, repair); err != nil {
			c.drain(true)
			return nil, fmt.Errorf("cohort repair: %w", err)
		}
	}
	return c, nil
}

// prime replays the trunk's retained history directly to a freshly admitted
// member, oldest first, so a station joining a fan-out session mid-stream
// starts with recent context instead of a cold gap. The frames were recorded
// by a replay stage in the trunk plan (no stage, no priming). Priming
// bypasses the member's cohort tail — the history is delivered as recorded,
// without re-encoding, which keeps a late join from perturbing the cohort's
// FEC group state — and enqueues straight onto the shard's queue, one pooled
// copy per frame and nothing else, as one batch. Caller holds t.mu.
func (t *deliveryTree) primeLocked(m *member) {
	rf, ok := t.cs.live.Instance(compose.KindReplay).(*arq.SenderFilter)
	if !ok {
		return
	}
	s := t.s
	s.eng.beginBatch()
	defer s.eng.endBatch()
	rf.Visit(func(frame []byte) {
		b := packet.GetBuf(packet.SessionIDSize + len(frame))
		packet.PutSessionID(b.B, s.id)
		copy(b.B[packet.SessionIDSize:], frame)
		m.counters.Primed.Add(1)
		s.shard.enqueue(outbound{s: s, b: b, dst: m.ap, rx: &m.counters})
	})
}

// memberRepair resolves the member a NACK from the given receiver is charged
// to and (for chain cohorts) the live composition it should be answered
// against; nil when ap is no member.
func (t *deliveryTree) memberRepair(ap netip.AddrPort) (*member, *compose.Live) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[ap]
	if m == nil || m.cohort == nil {
		return m, nil
	}
	return m, m.cohort.live
}

// loopFor reconciles membership — a departed member cannot be reported for,
// and one that joined silently gets its loop before its first report — and
// returns the adaptation loop of the member at ap, nil if there is none.
func (t *deliveryTree) loopFor(ap netip.AddrPort) *receiverLoop {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reconcileLocked()
	if m := t.members[ap]; m != nil {
		return m.loop
	}
	return nil
}

// sweep expires members whose last report is older than window at now. The
// loops re-decide with tree.mu released: a member's move takes it. Caller
// holds the session's mu.
func (t *deliveryTree) sweep(now int64, window time.Duration) {
	t.mu.Lock()
	var stale []*receiverLoop
	for _, m := range t.members {
		if m.loop != nil && m.loop.stale(now, window) {
			stale = append(stale, m.loop)
		}
	}
	t.mu.Unlock()
	for _, l := range stale {
		l.sweep(now, window)
	}
}

// close tears the tree down, flushing what the cohorts hold to their members,
// and returns the members' final adaptation view (nil without the feedback
// plane): closed is set in the same critical section, so no decision lands
// after it. The trunk must already be closed so no dispatch is in flight.
func (t *deliveryTree) close() *metrics.AdaptStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	snap := t.adaptLocked()
	clear(t.members)
	for key, c := range t.cohorts {
		c.drain(true)
		delete(t.cohorts, key)
	}
	t.list = nil
	return snap
}

// adaptLocked aggregates the members' loops, nil without the feedback plane.
// Caller holds t.mu.
func (t *deliveryTree) adaptLocked() *metrics.AdaptStats {
	if !t.s.eng.adaptOn {
		return nil
	}
	loops := make([]*receiverLoop, 0, len(t.members))
	for _, m := range t.members {
		loops = append(loops, m.loop)
	}
	return adaptStats(loops...)
}

// stats fills the session's tree columns: every member, ordered by receiver
// address for deterministic control-plane output, the cohort count and the
// adaptation view. Counters are exact per receiver even though delivery is
// shared: the shard's flush credits each fanned datagram to its member's
// counter block.
func (t *deliveryTree) stats(st *metrics.SessionStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st.Receivers = make([]metrics.ReceiverStats, 0, len(t.members))
	for _, m := range t.members {
		rs := m.counters.Snapshot(m.ap.String())
		rs.Chain = m.plan.String()
		if c := m.cohort; c != nil && c.frames != nil {
			for _, f := range c.frames.Filters() {
				rs.Stages = append(rs.Stages, f.Name())
			}
		}
		if m.loop != nil {
			m.loop.fill(&rs)
		}
		st.Receivers = append(st.Receivers, rs)
	}
	sort.Slice(st.Receivers, func(i, j int) bool { return st.Receivers[i].Receiver < st.Receivers[j].Receiver })
	st.Cohorts = len(t.cohorts)
	st.Adapt = t.adaptLocked()
}

// deliver takes one stamped trunk datagram. The bypass lane enqueues it as
// is; a tail runs it inline, its output reaching the same queue through send.
// Caller holds tree.mu.
func (c *cohort) deliver(b *packet.Buf) {
	s := c.tree.s
	if c.frames == nil {
		s.shard.counters.bypassHits.Add(1)
		s.shard.enqueue(outbound{s: s, b: b, view: c.view.Load()})
		return
	}
	b.B = b.B[packet.SessionIDSize:]
	switch err := c.frames.Process(b); {
	case err == nil:
	case errors.Is(err, filter.ErrFrameChainClosed):
		// A tail stage failed on an earlier frame: the cohort drops what
		// reaches it, once for the session and once per member.
		for _, tg := range *c.view.Load() {
			tg.rx.Drops.Add(1)
		}
		s.counters.Drops.Add(1)
		b.Release()
	default:
		s.shard.counters.chainErrors.Add(1)
		s.eng.logf("session %d: cohort %q: chain failed: %v", s.id, c.key, err)
	}
}

// send is a tail's sink: it stamps the session ID and enqueues the frame for
// the cohort's current members. It runs under the tail's lock — inside
// dispatch, or on the tail's release timer.
func (c *cohort) send(b *packet.Buf) {
	s := c.tree.s
	b = datagram(b)
	packet.PutSessionID(b.B, s.id)
	s.shard.enqueue(outbound{s: s, b: b, view: c.view.Load()})
}

// publish republishes the cohort's view from its membership. Caller holds
// tree.mu (or owns a cohort nobody else can see yet).
func (c *cohort) publish() {
	v := make([]target, len(c.members))
	for i, m := range c.members {
		v[i] = target{dst: m.ap, rx: &m.counters}
	}
	c.view.Store(&v)
}

// drain empties the cohort's tail through send to its current members, as
// one batch, and closes it when closing; the bypass lane holds nothing.
func (c *cohort) drain(closing bool) {
	if c.frames == nil {
		return
	}
	c.tree.s.eng.beginBatch()
	defer c.tree.s.eng.endBatch()
	op, fn := "flush", c.frames.Flush
	if closing {
		op, fn = "close", c.frames.Close
	}
	if err := fn(); err != nil {
		c.tree.s.eng.logf("session %d: cohort %q: %s: %v", c.tree.s.id, c.key, op, err)
	}
}
