package engine

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/arq"
	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/multicast"
	"rapidware/internal/packet"
)

// Session is one proxied stream inside an Engine. Its identity, counters and
// peer pinning live directly on the struct and survive for the session's
// whole registered lifetime; everything bound to the trunk's current plan —
// the stage instances and their executor, the adaptation loops and the
// delivery tree — lives behind one atomic pointer to a chainState, so an
// idle session can be parked down to this struct plus a retained plan and
// later rebuilt transparently (see park.go). Sessions are created on demand
// by the engine's read loop when a datagram with an unknown session ID
// arrives.
type Session struct {
	id  uint32
	eng *Engine
	// shard is the slice of the engine's data plane that owns this session:
	// its table shard holds the registration and its output queue carries all
	// of the session's output.
	shard *shard

	// cs is the session's chain-bound state: nil exactly while the session is
	// parked (or closed, when it is no longer in the table). The data path
	// loads it once per packet; park, unpark and close swap it under mu.
	cs atomic.Pointer[chainState]

	// mu serializes everything the session does off the data path: park,
	// unpark and close, trunk and member edits, every adaptation step (the
	// receiver loops' state is guarded by it) and Stats. The fields below it
	// are the "compact parked record": what remains of a session when its
	// chain is gone.
	mu          sync.Mutex
	closed      bool                // set by close; refuses a later unpark
	parkedPlan  compose.Plan        // canonical trunk plan retained at park
	parkedAdapt *metrics.AdaptStats // last adaptation snapshot, for stats while parked

	counters metrics.SessionCounters
	// groups numbers the FEC groups of every encoder ever built for the
	// session — trunk stages, the adaptation loop's encoder, cohort tails —
	// across recompositions, retunes and parking, so no two groups a receiver
	// sees share a number (compose.Env.Groups).
	groups atomic.Uint32

	// ctlActivity counts control-plane touches (recompose and friends) so an
	// operator working on a session keeps it from being harvested; together
	// with the packet counters it forms the activity sum the maintenance tick
	// compares against idleSeen — no per-packet clock reads anywhere.
	ctlActivity atomic.Uint64
	idleSeen    atomic.Uint64 // activity sum at the last maintenance observation
	idleSince   atomic.Int64  // unix nanos of the last observed activity change

	// peer is the address the session echoes to. The data path reads it with
	// one atomic load per datagram; the first sender pins it with a
	// compare-and-swap, and roaming stores over it.
	peer atomic.Pointer[netip.AddrPort]

	// prev and next link the session into the list of its table shard that
	// list names: the live list while it has a chain, the parked list while
	// it has none, no list once it is out of the table. All three are guarded
	// by the table shard's lock (see tableShard). They come last, after the
	// fields the data path reads.
	prev, next *Session
	list       *sessionList
}

// chainState is one incarnation of a session's running machinery: the trunk
// plan's stage instances on a filter.FrameChain, which runs to completion on
// whichever goroutine delivers the datagram — no goroutine, queue or byte
// pipe of its own — and, when configured, the adaptation loops and the
// per-receiver delivery tree. A frame chain cannot reopen once closed, so
// park discards the whole incarnation and unpark builds a fresh one from the
// retained plan.
type chainState struct {
	frames *filter.FrameChain

	// live binds the trunk's executor to its composition plan; all structural
	// mutation — control-plane recompose, the trunk loop's splices — goes
	// through it, serialized by its splice lock.
	live *compose.Live

	// trunk is the adaptation loop of a unicast session's one receiver; nil
	// without the feedback plane and on fan-out sessions, whose members carry
	// their own loops in the tree.
	trunk *receiverLoop

	// tree is the session's per-receiver delivery tree: the trunk's output
	// is dispatched to the delivery cohorts serving the fan-out members. nil
	// on unicast sessions.
	tree *deliveryTree

	// retunes counts every retune this incarnation's loops applied, departed
	// members' included.
	retunes atomic.Uint64

	nack arq.Budget // the unicast requester's retransmission budget
}

// newSession builds the chain for one session. It runs with no lock held —
// the caller registers the finished session in the sharded table afterwards
// and resolves any construction race there.
func newSession(e *Engine, id uint32, peer netip.AddrPort) (*Session, error) {
	s := &Session{
		id:    id,
		eng:   e,
		shard: e.shardFor(id),
	}
	if peer.IsValid() {
		s.peer.Store(&peer)
	}
	s.idleSince.Store(time.Now().UnixNano())
	cs, err := e.buildChainState(s, e.trunkPlan)
	if err != nil {
		return nil, err
	}
	s.cs.Store(cs)
	return s, nil
}

// buildChainState assembles one incarnation of a session's trunk from the
// given plan: at open time from the engine's configured plan, at unpark time
// from the plan the session retained when it was parked. The stages run on
// the delivering goroutine and what they emit goes straight to send, in the
// buffer it arrived in whenever the stages kept it.
func (e *Engine) buildChainState(s *Session, plan compose.Plan) (*chainState, error) {
	cs := &chainState{}
	cs.frames = filter.NewFrameChain(func(b *packet.Buf) { s.send(cs, datagram(b)) })
	live, err := compose.Attach(cs.frames, e.reg, s.composeEnv(""), e.trunkMode(), plan)
	if err != nil {
		return nil, fmt.Errorf("engine: session %d chain: %w", s.id, err)
	}
	cs.live = live
	if e.adaptOn && e.group == nil {
		if cs.trunk, err = newTrunkLoop(s, cs); err != nil {
			_ = cs.frames.Close() // nothing has run through it yet
			return nil, fmt.Errorf("engine: session %d adaptation: %w", s.id, err)
		}
	}
	if e.group != nil {
		// Build the delivery tree (and a cohort for every current fan-out
		// member) before the session can receive a packet, so the first
		// trunk frame already fans out through fully primed cohorts.
		cs.tree = newDeliveryTree(s, cs)
		cs.tree.reconcile()
	}
	return cs, nil
}

// datagram returns b with session-ID headroom in front of its frame, the form
// the shard sends. A received buffer still has its prefix there and
// stage-built frames reserve it (packet.GetFrameBuf); anything else is
// re-buffered.
func datagram(b *packet.Buf) *packet.Buf {
	if b.Unshift(packet.SessionIDSize) {
		return b
	}
	nb := packet.GetBuf(packet.SessionIDSize + len(b.B))
	copy(nb.B[packet.SessionIDSize:], b.B)
	b.Release()
	return nb
}

// ID returns the session's wire identifier.
func (s *Session) ID() uint32 { return s.id }

// state returns the session's current chain-bound state, nil while parked.
func (s *Session) state() *chainState { return s.cs.Load() }

// Live exposes the session's composed trunk so the control plane (and tests)
// can observe it. nil while parked. Edit it through Engine.EditSession,
// which unparks first.
func (s *Session) Live() *compose.Live {
	if cs := s.cs.Load(); cs != nil {
		return cs.live
	}
	return nil
}

// Parked reports whether the session is currently parked: it has no chain.
// A closed session has none either, but it is no longer in the table.
func (s *Session) Parked() bool { return s.cs.Load() == nil }

// composeEnv is the build environment the session's stages are instantiated
// with; suffix tells a cohort tail's instance names from the trunk's. Every
// stage counts into the session's counter block and numbers FEC groups from
// its one counter.
func (s *Session) composeEnv(suffix string) compose.Env {
	return compose.Env{
		StreamID: s.id,
		Name:     func(kind string) string { return fmt.Sprintf("%s:%d%s", kind, s.id, suffix) },
		Counters: &s.counters,
		Groups:   &s.groups,
	}
}

// Counters returns the session's counter block.
func (s *Session) Counters() *metrics.SessionCounters { return &s.counters }

// AdaptRetunes returns how many retune decisions the session's adaptation
// loops have applied since its chain was last built (encoder splices on
// unicast trunks, cohort moves on fan-out members, departed members'
// included). Zero when the plane is off or the session is parked. One atomic
// load, cheap enough for benchmarks and tests to poll, unlike a full Stats
// snapshot.
func (s *Session) AdaptRetunes() uint64 {
	if cs := s.cs.Load(); cs != nil {
		return cs.retunes.Load()
	}
	return 0
}

// activitySum folds every signal that counts as session activity into one
// number the maintenance tick can compare against its last mark: inbound
// packets (delivered or queue-dropped — a flooding sender is not idle) and
// control-plane touches.
func (s *Session) activitySum() uint64 {
	return s.counters.Packets.Load() + s.counters.Drops.Load() + s.ctlActivity.Load()
}

// Stats snapshots the session's counters — FEC decoder stages add their
// repairs to them directly — and the adaptation loop's state when the plane
// is on. On a parked session the chain columns come from the retained plan
// and the adaptation snapshot taken at park time. It holds mu, so it never
// sees a loop's state half-way through a decision.
func (s *Session) Stats() metrics.SessionStats {
	st := s.counters.Snapshot(s.id)
	st.Shard = s.shard.idx
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs := s.cs.Load(); cs != nil {
		st.Chain = cs.live.String()
		st.Stages = cs.live.StageStats()
		if cs.trunk != nil {
			st.Adapt = adaptStats(cs.trunk)
		}
		if cs.tree != nil {
			cs.tree.stats(&st)
		}
	} else if !s.closed {
		st.Parked = true
		st.Chain = s.parkedPlan.String()
		st.Adapt = s.parkedAdapt
	}
	if s.eng.cfg.IdleTTL > 0 {
		if since := s.idleSince.Load(); since > 0 {
			if ms := (time.Now().UnixNano() - since) / int64(time.Millisecond); ms > 0 {
				st.IdleForMs = ms
			}
		}
	}
	return st
}

// handleFeedback consumes one validated receiver-report frame. The report's
// source address identifies the receiver, so on a fan-out session each
// downstream station steers only its own delivery. Reports from addresses
// that are not legitimate receivers of this session are dropped — the
// feedback plane honors the same off-path protections as the data path.
// Reports for a parked session are dropped too: feedback describes a stream
// that is not flowing, and a chatty reporter must not keep an idle session's
// chain alive (nor rebuild it). Called from the engine's read loop, which
// also decides and applies the report (adapt.go) under mu: a decision lands
// only on the incarnation that is current, never on one park or close
// retired.
func (s *Session) handleFeedback(from netip.AddrPort, frame []byte) {
	if !s.eng.adaptOn {
		return
	}
	// Canonicalize once: authorization and the member lookup both compare
	// unmapped forms (a dual-stack socket may report the same station as
	// 1.2.3.4 or ::ffff:1.2.3.4 depending on how it sent).
	from = multicast.UnmapAddrPort(from)
	if !s.eng.receiverAuthorized(s, from) {
		return
	}
	rep, err := packet.ParseReport(frame)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.cs.Load()
	if cs == nil {
		return
	}
	// A unicast trunk's one receiver is already pinned by authorization, so
	// a session that roamed reports into the same loop.
	l := cs.trunk
	if cs.tree != nil {
		l = cs.tree.loopFor(from)
	}
	if l != nil {
		l.report(rep, time.Now().UnixNano())
	}
}

// historyFor resolves the retransmission history a NACK against the given
// live composition should be answered from: a static arq stage if the plan
// has one, else whatever the fec-adapt marker currently holds (the adaptation
// plane splices an ARQ history there on high-RTT low-loss links).
func historyFor(live *compose.Live) *arq.SenderFilter {
	if h, ok := live.Instance(compose.KindARQ).(*arq.SenderFilter); ok {
		return h
	}
	h, _ := live.Instance(compose.KindFECAdapt).(*arq.SenderFilter)
	return h
}

// handleNack consumes one validated NACK frame, answering each distinct named
// sequence number once out of the session's ARQ retransmission history with a
// unicast retransmission to the requester, within the budget the bytes
// relayed to it earn (arq.Budget; refusals count in nackRefused). NACKs honor
// the same off-path check as receiver reports; on a fan-out session the
// requester's own delivery branch is consulted first, so a member whose loop
// escalated to ARQ is served from its cohort's own history. Requests for
// sequence numbers the bounded history no longer holds are silently
// unanswerable — the receiver's give-up accounting owns that loss, and a
// parked session's history went with its chain. Called from the read loop.
func (s *Session) handleNack(from netip.AddrPort, frame []byte) {
	cs := s.cs.Load()
	if cs == nil {
		return
	}
	from = multicast.UnmapAddrPort(from)
	if !s.eng.receiverAuthorized(s, from) {
		return
	}
	var seqbuf [packet.MaxNackSeqs]uint64
	seqs, err := packet.ParseNack(frame, seqbuf[:0])
	if err != nil {
		return
	}
	seqs = dedupSeqs(seqs)
	var rx *metrics.ReceiverCounters
	var h *arq.SenderFilter
	budget, sent := &cs.nack, &s.counters.OutBytes
	if cs.tree != nil {
		// Same reconcile-before-routing rule as reports: a silently joined
		// member gets its membership before its first NACK is dropped.
		cs.tree.reconcile()
		if m, live := cs.tree.memberRepair(from); m != nil {
			rx, budget, sent = &m.counters, &m.nack, &m.counters.OutBytes
			if live != nil {
				h = historyFor(live)
			}
		}
	}
	if h == nil {
		h = historyFor(cs.live)
	}
	if h == nil {
		return
	}
	for _, seq := range seqs {
		b := h.Lookup(seq)
		if b == nil {
			continue
		}
		b = datagram(b)
		if !budget.Take(len(b.B), sent.Load()) {
			s.shard.counters.nackRefused.Add(1)
			b.Release()
			continue
		}
		packet.PutSessionID(b.B, s.id)
		s.shard.enqueue(outbound{s: s, b: b, dst: from, rx: rx})
		s.shard.counters.retransmits.Add(1)
	}
}

// dedupSeqs drops repeated sequence numbers from seqs in place, keeping each
// one's first position, so a NACK naming one held frame many times is
// answered with one retransmission, not one per mention. A NACK holds at most
// packet.MaxNackSeqs numbers, so the quadratic scan stays on the stack.
func dedupSeqs(seqs []uint64) []uint64 {
	n := 0
	for _, seq := range seqs {
		if !slices.Contains(seqs[:n], seq) {
			seqs[n] = seq
			n++
		}
	}
	return seqs[:n]
}

// Peer returns the address the session currently relays to in echo mode: the
// source of the most recent inbound datagram.
func (s *Session) Peer() netip.AddrPort {
	if p := s.peer.Load(); p != nil {
		return *p
	}
	return netip.AddrPort{}
}

// setPeer records the sender a session echoes to. By default the peer is
// pinned to the session's first sender: letting any datagram that guesses a
// live session ID retarget the output would hand the stream to an off-path
// attacker (or reflect it at a spoofed victim). Deployments with genuinely
// mobile clients opt in with Config.AllowRoaming. The per-datagram cost is
// one atomic load (plus an address compare under roaming); the first sender
// wins the pin with one compare-and-swap.
func (s *Session) setPeer(from netip.AddrPort) {
	p := s.peer.Load()
	if p != nil && (!s.eng.cfg.AllowRoaming || *p == from) {
		return
	}
	addr := from // the copy escapes, not the per-datagram parameter
	if p == nil {
		s.peer.CompareAndSwap(nil, &addr)
		return
	}
	s.peer.Store(&addr)
}

// deliver hands one inbound datagram (session ID still prefixed) to the
// session; it takes ownership of b. A datagram for a parked session unparks
// it first — the rebuild is the slow path.
//
// The datagram is processed right here: one atomic load, the executor's lock,
// then every stage and send run to completion on this goroutine, in the
// size-classed buffer the reader copied the datagram into. A false Enter means the executor was retired
// under us — park or close, under mu, or a stage failure — so we wait the
// transition out on mu and look again.
func (s *Session) deliver(b *packet.Buf, from netip.AddrPort) {
	s.setPeer(from)
	for {
		cs := s.cs.Load()
		if cs == nil {
			var err error
			if cs, err = s.unpark(); err != nil {
				s.counters.Drops.Add(1)
				b.Release()
				return
			}
		}
		fc := cs.frames
		if fc.Enter() {
			s.counters.Packets.Add(1)
			s.counters.Bytes.Add(uint64(len(b.B)))
			b.B = b.B[packet.SessionIDSize:]
			err := fc.Run(b)
			fc.Exit()
			if err != nil {
				s.eng.chainFailed(s, cs, err)
			}
			return
		}
		s.mu.Lock()
		swapped := s.cs.Load() != cs
		s.mu.Unlock()
		if swapped {
			continue
		}
		// Still the same incarnation, so a stage failed on another reader's
		// frame (or on one a timed stage released).
		if err := fc.Err(); err != nil {
			s.eng.chainFailed(s, cs, err)
		}
		s.counters.Drops.Add(1)
		b.Release()
		return
	}
}

// send relays one trunk-output frame; b.B starts with SessionIDSize bytes of
// headroom followed by the frame. On a fan-out session the tree stamps the
// session ID and dispatches the frame to every delivery cohort; otherwise the
// session ID is stamped in place and the whole buffer is one datagram for the
// owning shard's output queue. Routing every datagram of a session
// through one shard's queue preserves per-session output order; a full queue
// drops (UDP-style, counted) rather than blocking the trunk. send owns b
// until the enqueue. It runs under the executor's lock, so calls for one
// incarnation never overlap.
func (s *Session) send(cs *chainState, b *packet.Buf) {
	if cs.tree != nil {
		cs.tree.dispatch(b)
		return
	}
	packet.PutSessionID(b.B, s.id)
	dst := s.eng.forward
	if !dst.IsValid() {
		dst = s.Peer()
	}
	if !dst.IsValid() {
		s.counters.Drops.Add(1)
		b.Release()
		return
	}
	s.shard.enqueue(outbound{s: s, b: b, dst: dst})
}

// close terminates the session: a live incarnation is retired as park
// would — adaptation first, then the trunk flushes what its stages hold and
// closes, then the delivery cohorts — and a parked session has nothing left
// to retire. It runs once per session, by whoever removed the session from
// the table (evict, Engine.Close) or by the opener that lost the race to
// insert it.
func (s *Session) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

// closeLocked is close with mu held.
func (s *Session) closeLocked() error {
	s.closed = true
	cs := s.cs.Load()
	if cs == nil {
		return nil
	}
	_, err := s.retireLocked(cs)
	return err
}
