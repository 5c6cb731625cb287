package engine

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

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
	// its table shard holds the registration and its writer carries all of
	// the session's output.
	shard *shard

	// cs is the session's chain-bound state: nil exactly while the session is
	// parked. The data path loads it once per packet; park/unpark swap it
	// under parkMu.
	cs atomic.Pointer[chainState]

	// parkMu serializes the park/unpark/close lifecycle transitions. The
	// fields below it are the "compact parked record": what remains of a
	// session when its chain is gone.
	parkMu      sync.Mutex
	parked      atomic.Bool
	parkedPlan  compose.Plan        // canonical trunk plan retained at park (guarded by parkMu)
	parkedAdapt *metrics.AdaptStats // last adaptation snapshot, for stats while parked (guarded by parkMu)

	counters metrics.SessionCounters

	// ctlActivity counts control-plane touches (recompose and friends) so an
	// operator working on a session keeps it from being harvested; together
	// with the packet counters it forms the activity sum the maintenance tick
	// compares against idleSeen — no per-packet clock reads anywhere.
	ctlActivity atomic.Uint64
	idleSeen    atomic.Uint64 // activity sum at the last maintenance observation
	idleSince   atomic.Int64  // unix nanos of the last observed activity change

	// repairs reports FEC reconstruction counts from decoder stages built
	// into the chain (past and present — a recomposed-away decoder's final
	// count still tells the truth about the session's history); read at
	// snapshot time, never on the data path.
	repairsMu sync.Mutex
	repairs   []func() uint64

	done chan struct{}

	// exited is set by the first reader to report the chain's failure, so one
	// failure evicts the session once.
	exited atomic.Bool

	closeOnce sync.Once
	closeErr  error

	// peer is the address the session echoes to. The data path reads it with
	// one atomic load per datagram; peerMu serializes the writers (the first
	// sender's pin, and every change under AllowRoaming).
	peerMu sync.Mutex
	peer   atomic.Pointer[netip.AddrPort]
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

	// retired is set (under the session's parkMu) before a deliberate teardown
	// — park or close — so the failure path can tell it from a chain dying on
	// its own and skip the eviction, and no adaptation decision is applied
	// after it (adapt.go).
	retired atomic.Bool
}

// newSession builds the chain for one session. It runs with no lock held —
// the caller registers the finished session in the sharded table afterwards
// and resolves any construction race there.
func newSession(e *Engine, id uint32, peer netip.AddrPort) (*Session, error) {
	s := &Session{
		id:    id,
		eng:   e,
		shard: e.shardFor(id),
		done:  make(chan struct{}),
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
	live, err := compose.Attach(cs.frames, e.reg, s.composeEnv(), e.trunkMode(), plan)
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
// can observe it. nil while parked. Recompose through the engine's session
// operations (RecomposeSession and friends), which unpark first.
func (s *Session) Live() *compose.Live {
	if cs := s.cs.Load(); cs != nil {
		return cs.live
	}
	return nil
}

// Parked reports whether the session is currently parked.
func (s *Session) Parked() bool { return s.parked.Load() }

// composeEnv is the build environment trunk plan stages are instantiated
// with.
func (s *Session) composeEnv() compose.Env {
	return compose.Env{
		StreamID:  s.id,
		Name:      func(kind string) string { return fmt.Sprintf("%s:%d", kind, s.id) },
		OnRepairs: s.addRepairHook,
		OnDrop:    func() { s.counters.Drops.Add(1) },
	}
}

// addRepairHook registers one decoder stage's reconstruction counter. Hooks
// accumulate across recompositions so Stats stays monotonic; the slice only
// grows on control-path chain builds.
func (s *Session) addRepairHook(fn func() uint64) {
	s.repairsMu.Lock()
	s.repairs = append(s.repairs, fn)
	s.repairsMu.Unlock()
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

// Stats snapshots the session's counters, folding in FEC repair counts from
// any decoder stages and the adaptation loop's state when the plane is on.
// On a parked session the chain columns come from the retained plan and the
// adaptation snapshot taken at park time.
func (s *Session) Stats() metrics.SessionStats {
	st := s.counters.Snapshot(s.id)
	st.Shard = s.shard.idx
	s.repairsMu.Lock()
	hooks := append([]func() uint64(nil), s.repairs...)
	s.repairsMu.Unlock()
	for _, fn := range hooks {
		st.Repairs += fn()
	}
	if cs := s.cs.Load(); cs != nil {
		st.Chain = cs.live.String()
		st.Stages = cs.live.StageStats()
		if cs.trunk != nil {
			st.Adapt = adaptStats(cs.trunk)
		}
		if cs.tree != nil {
			cs.tree.stats(&st)
		}
	} else {
		st.Parked = true
		s.parkMu.Lock()
		st.Chain = s.parkedPlan.String()
		st.Adapt = s.parkedAdapt
		s.parkMu.Unlock()
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
// also decides and applies the report (adapt.go).
func (s *Session) handleFeedback(from netip.AddrPort, frame []byte) {
	cs := s.cs.Load()
	if cs == nil || !s.eng.adaptOn {
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

// retransmitter is what a NACK is answered from: any stage instance holding a
// bounded retransmission history keyed by sequence number. arq.SenderFilter
// implements it; the lookup is structural so a future stage kind (or a custom
// registry's) can serve NACKs without touching the engine.
type retransmitter interface {
	// Lookup returns the buffered packet for seq (nil when evicted or never
	// sent). The returned packet must be treated as read-only.
	Lookup(seq uint64) *packet.Packet
}

// historyFor resolves the retransmission history a NACK against the given
// live composition should be answered from: a static arq stage if the plan
// has one, else whatever the fec-adapt marker currently holds (the adaptation
// plane splices an ARQ history there on high-RTT low-loss links).
func historyFor(live *compose.Live) retransmitter {
	if h, ok := live.Instance(compose.KindARQ).(retransmitter); ok {
		return h
	}
	if h, ok := live.Instance(compose.KindFECAdapt).(retransmitter); ok {
		return h
	}
	return nil
}

// handleNack consumes one validated NACK frame, answering each named sequence
// number out of the session's ARQ retransmission history with a unicast
// retransmission to the requester. NACKs honor the same off-path check as
// receiver reports; on a fan-out session the requester's own delivery branch
// is consulted first, so a member whose loop escalated to ARQ is served from
// its cohort's own history. Requests for sequence numbers the bounded
// history no longer holds are silently unanswerable — the receiver's give-up
// accounting owns that loss, and a parked session's history went with its
// chain. Called from the engine's read loop.
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
	var rx *metrics.ReceiverCounters
	var h retransmitter
	if cs.tree != nil {
		// Same reconcile-before-routing rule as reports: a silently joined
		// member gets its membership before its first NACK is dropped.
		cs.tree.reconcile()
		var live *compose.Live
		rx, live = cs.tree.memberRepair(from)
		if live != nil {
			h = historyFor(live)
		}
	}
	if h == nil {
		h = historyFor(cs.live)
	}
	if h == nil {
		return
	}
	for _, seq := range seqs {
		p := h.Lookup(seq)
		if p == nil {
			continue
		}
		// Serialize the stored packet straight into a pooled wire buffer:
		// session prefix first, then the frame appended in place.
		b := packet.GetBuf(packet.SessionIDSize + packet.HeaderSize + len(p.Payload))
		packet.PutSessionID(b.B, s.id)
		dgram, err := packet.AppendFrame(b.B[:packet.SessionIDSize], p)
		if err != nil {
			b.Release()
			continue
		}
		b.B = dgram
		s.shard.enqueue(outbound{s: s, b: b, dst: from, rx: rx})
		s.shard.counters.retransmits.Add(1)
	}
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
// one atomic load (plus an address compare under roaming); the mutex only
// orders the rare writes.
func (s *Session) setPeer(from netip.AddrPort) {
	roaming := s.eng.cfg.AllowRoaming
	if p := s.peer.Load(); p != nil && (!roaming || *p == from) {
		return
	}
	s.peerMu.Lock()
	if roaming || s.peer.Load() == nil {
		addr := from // the copy escapes, not the per-datagram parameter
		s.peer.Store(&addr)
	}
	s.peerMu.Unlock()
}

// deliver hands one inbound datagram (session ID still prefixed) to the
// session; it takes ownership of b. A datagram for a parked session unparks
// it first — the rebuild is the slow path.
//
// The datagram is processed right here: one atomic load, the executor's lock,
// then every stage and send run to completion on this goroutine, in the
// buffer the socket read filled. A false Enter means the executor was retired
// under us — park, under parkMu, or a close/failure for good — so we wait the
// transition out on parkMu and look again.
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
		s.parkMu.Lock()
		swapped := s.cs.Load() != cs
		s.parkMu.Unlock()
		if swapped {
			continue
		}
		// Still the same incarnation, so it is gone for good: the session is
		// closing, or a stage failed on another reader's frame (or on one a
		// timed stage released).
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

// close terminates the session: the incarnation is retired as park would —
// adaptation first, then the trunk flushes what its stages hold and closes,
// then the delivery cohorts — and a parked session just releases its slot in
// the parked gauge.
func (s *Session) close() error {
	s.closeOnce.Do(func() {
		s.parkMu.Lock()
		defer s.parkMu.Unlock()
		close(s.done)
		if cs := s.cs.Load(); cs != nil {
			_, s.closeErr = s.retireLocked(cs)
		}
		if s.parked.CompareAndSwap(true, false) {
			s.shard.counters.parkedNow.Add(-1)
		}
	})
	return s.closeErr
}
