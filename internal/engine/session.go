package engine

import (
	"fmt"
	"io"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/endpoint"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/multicast"
	"rapidware/internal/packet"
)

// Session is one proxied stream inside an Engine. Its identity, counters and
// peer pinning live directly on the struct and survive for the session's
// whole registered lifetime; everything bound to the trunk's current plan —
// the stage instances and their executor, the adaptation bus and the delivery
// tree — lives behind one atomic pointer to a chainState, so an idle session
// can be parked down to this struct plus a retained plan and later rebuilt
// transparently (see park.go). Sessions are created on demand by the engine's
// read loop when a datagram with an unknown session ID arrives.
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

	// exited is set by the engine's exit hook when the chain terminates on
	// its own. openSession checks it after registering the session: a chain
	// that died inside the construct→register window would otherwise leave a
	// dead session in the table (the hook's eviction ran before there was
	// anything to evict) and blackhole the ID.
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
// plan's stage instances on one of two executors, and — when configured — the
// adaptation plane and the per-receiver delivery tree.
//
// The plan picks the executor (compose.Registry.FrameNative): when every stage
// has a frame form the trunk is a filter.FrameChain and runs to completion on
// whichever goroutine delivers the datagram — no goroutine, queue or byte
// pipe of its own; frames is set and the goroutine-chain fields are nil.
// Otherwise (a timed stage, a stream-only custom stage) the trunk is the
// paper's goroutine-per-stage filter.Chain bracketed by UDP endpoints and fed
// from an inbound queue; frames is nil. A goroutine chain cannot restart once
// stopped and a frame chain cannot reopen once closed, so park discards the
// whole incarnation and unpark builds a fresh one from the retained plan.
type chainState struct {
	// frames is the inline executor of a frame-native plan.
	frames *filter.FrameChain

	// chain, source, sink, in and stop are the goroutine executor: nil on a
	// frame-native incarnation.
	chain  *filter.Chain
	source *endpoint.UDPSource
	sink   *endpoint.UDPSink
	in     chan *packet.Buf
	stop   chan struct{}

	// live binds the trunk's executor to its composition plan; all structural
	// mutation — control-plane recompose, responder splices — goes through
	// it, serialized by its splice lock.
	live *compose.Live

	// adaptor is the session's closed adaptation plane; nil when the engine
	// runs without the feedback loop.
	adaptor *sessionAdaptor

	// tree is the session's per-receiver delivery tree: the trunk chain's
	// output is cloned by reference into one branch tail per fan-out member.
	// nil on unicast sessions and on plain (branch-less) fan-out.
	tree *deliveryTree

	// retired is set (under the session's parkMu) before a deliberate teardown
	// — park, close, or a rebuild on the other executor — so the failure path
	// can tell it from a chain dying on its own and skip the eviction.
	retired atomic.Bool
}

// newSession builds and starts the chain for one session. It runs with no
// lock held — the caller registers the finished session in the sharded table
// afterwards and resolves any construction race there.
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
	cs, err := e.buildChainState(s, e.trunkPlan, nil)
	if err != nil {
		return nil, err
	}
	s.cs.Store(cs)
	return s, nil
}

// buildChainState assembles and starts one incarnation of a session's trunk
// from the given plan: at open time from the engine's configured plan, at
// unpark time from the plan the session retained when it was parked, and when
// a recompose moves the session to the other executor from the new plan, with
// from naming the torn-down incarnation's Live whose matching stage instances
// carry over.
func (e *Engine) buildChainState(s *Session, plan compose.Plan, from *compose.Live) (*chainState, error) {
	cs := &chainState{}
	var err error
	if e.reg.FrameNative(plan) {
		err = e.buildFrameChain(s, cs, plan, from)
	} else {
		err = e.buildGoroutineChain(s, cs, plan, from)
	}
	if err != nil {
		return nil, err
	}
	if e.adaptOn {
		a, err := newSessionAdaptor(s, cs, e.policy)
		if err != nil {
			// Deliberate teardown of the half-built incarnation: retire it
			// first so the exit hook doesn't mistake the stop for a chain
			// death and try to evict a session that was never registered.
			cs.retired.Store(true)
			cs.stopExecutor()
			return nil, fmt.Errorf("engine: session %d adaptor: %w", s.id, err)
		}
		cs.adaptor = a
	}
	if e.branching {
		// Build the delivery tree (and one branch per current fan-out member)
		// before the session can receive a packet, so the first trunk frame
		// already fans out through fully primed branches.
		cs.tree = newDeliveryTree(s, cs)
		cs.tree.reconcile()
	}
	return cs, nil
}

// buildFrameChain composes a frame-native plan onto the inline executor: the
// stages run on the delivering goroutine and what they emit goes straight to
// send, in the buffer it arrived in whenever the stages kept it.
func (e *Engine) buildFrameChain(s *Session, cs *chainState, plan compose.Plan, from *compose.Live) error {
	cs.frames = filter.NewFrameChain(func(b *packet.Buf) {
		// send wants the session-ID headroom in front of the frame. A
		// received buffer still has its prefix there and stage-built frames
		// reserve it (packet.GetFrameBuf); anything else is re-buffered.
		if !b.Unshift(packet.SessionIDSize) {
			nb := packet.GetBuf(packet.SessionIDSize + len(b.B))
			copy(nb.B[packet.SessionIDSize:], b.B)
			b.Release()
			b = nb
		}
		s.send(cs, b)
	})
	live, err := compose.AttachTo(cs.frames, e.reg, s.composeEnv(), e.trunkMode(), plan, from)
	if err != nil {
		return fmt.Errorf("engine: session %d chain: %w", s.id, err)
	}
	cs.live = live
	return nil
}

// buildGoroutineChain composes a plan with a stage that has no frame form
// onto the paper's executor: one goroutine per stage joined by detachable
// streams, a UDPSource feeding it from the session's inbound queue and a
// UDPSink re-framing its output for send.
func (e *Engine) buildGoroutineChain(s *Session, cs *chainState, plan compose.Plan, from *compose.Live) error {
	cs.in = make(chan *packet.Buf, e.cfg.QueueDepth)
	cs.stop = make(chan struct{})
	cs.chain = filter.NewChain(fmt.Sprintf("session-%d", s.id))
	cs.source = endpoint.NewUDPSource(fmt.Sprintf("udp-in:%d", s.id), func() (*packet.Buf, error) {
		return s.recv(cs)
	})
	// The trunk sink always reserves session-ID headroom: on the unicast path
	// the frame is stamped and sent as-is, and on the delivery-tree path the
	// tree stamps the same headroom once before teeing so the bypass lane can
	// forward the shared buffer to the shard writer with no copy at all
	// (cohort chains read past the stamp at a fixed offset).
	cs.sink = endpoint.NewUDPSink(fmt.Sprintf("udp-out:%d", s.id), packet.SessionIDSize, func(b *packet.Buf) error {
		s.send(cs, b)
		return nil
	})
	if err := cs.chain.Append(cs.source); err != nil {
		return err
	}
	if err := cs.chain.Append(cs.sink); err != nil {
		return err
	}
	// Compose the trunk interior between the endpoints from the plan; the
	// same Live later applies control-plane recompositions and the adaptation
	// responder's splices to the running chain.
	live, err := compose.AttachTo(cs.chain, e.reg, s.composeEnv(), e.trunkMode(), plan, from)
	if err != nil {
		return fmt.Errorf("engine: session %d chain: %w", s.id, err)
	}
	cs.live = live
	// The sink's exit hook is the session's watchdog: when the chain
	// terminates on its own the hook evicts the session, without spending a
	// goroutine per session on a blocking Wait. Registered (and accounted in
	// the engine's exit WaitGroup) before Start so the hook cannot be missed.
	tracked := e.trackSessionExit()
	cs.sink.OnExit(func() { e.sessionExited(s, cs, tracked) })
	if err := cs.chain.Start(); err != nil {
		if tracked && !cs.sink.Running() {
			// The sink goroutine never launched, so the exit hook will never
			// fire; balance the accounting here.
			e.exitWg.Done()
		}
		return fmt.Errorf("engine: session %d start: %w", s.id, err)
	}
	return nil
}

// stopExecutor force-stops the incarnation's executor: close's teardown (and
// the bail-out of a half-built incarnation). A frame chain flushes what its
// stages hold on the way; a goroutine chain discards what is mid-chain.
func (cs *chainState) stopExecutor() error {
	if cs.frames != nil {
		return cs.frames.Close()
	}
	return cs.chain.Stop()
}

// ID returns the session's wire identifier.
func (s *Session) ID() uint32 { return s.id }

// state returns the session's current chain-bound state, nil while parked.
func (s *Session) state() *chainState { return s.cs.Load() }

// Chain exposes the session's goroutine filter chain for observation: nil
// while the session is parked, and nil when its plan is frame-native and runs
// inline with no filter.Chain at all. Structural mutation goes through Live,
// which keeps the executor and its plan consistent.
func (s *Session) Chain() *filter.Chain {
	if cs := s.cs.Load(); cs != nil {
		return cs.chain
	}
	return nil
}

// Live exposes the session's composed trunk so the control plane (and tests)
// can observe it. nil while parked. Recompose through the engine's session
// operations (RecomposeSession and friends), which unpark first and move the
// session to the other executor when the new plan needs it.
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
// plane has applied across all of its loops (encoder splices on unicast
// trunks, cohort moves on fan-out members). Zero when the plane is off or the
// session is parked. Cheap enough for benchmarks and tests to poll, unlike a
// full Stats snapshot.
func (s *Session) AdaptRetunes() uint64 {
	if cs := s.cs.Load(); cs != nil && cs.adaptor != nil {
		return cs.adaptor.retunes()
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
		if cs.adaptor != nil {
			st.Adapt = cs.adaptor.stats()
		}
		if cs.tree != nil {
			st.Receivers = cs.tree.stats()
			st.Cohorts = cs.tree.cohortCount()
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
// downstream station steers only its own delivery branch. Reports from
// addresses that are not legitimate receivers of this session are dropped —
// the feedback plane honors the same off-path protections as the data path.
// Reports for a parked session are dropped too: feedback describes a stream
// that is not flowing, and a chatty reporter must not keep an idle session's
// chain alive (nor rebuild it). Called from the engine's read loop; the heavy
// lifting happens on the bus goroutine.
func (s *Session) handleFeedback(from netip.AddrPort, frame []byte) {
	cs := s.cs.Load()
	if cs == nil || cs.adaptor == nil {
		return
	}
	// Canonicalize once: authorization and the receiver key both compare
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
	if cs.tree != nil {
		// Membership may have changed since the last packet: a departed
		// member's branch (and loop) is torn down before routing, so its last
		// report cannot pin anything, and a member that joined silently gets
		// its branch before its first report would be dropped on the floor.
		cs.tree.reconcile()
	}
	cs.adaptor.report(from, rep)
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
// retransmission to the requester. NACKs honor the same off-path gate as
// receiver reports; on a fan-out session the requester's own delivery branch
// is consulted first, so a branch whose responder escalated to ARQ serves its
// receiver from its own history. Requests for sequence numbers the bounded
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
// On a frame-native trunk the datagram is processed right here: one atomic
// load, the executor's lock, then every stage and send run to completion on
// this goroutine, in the buffer the socket read filled. A false Enter means
// the executor was retired under us — park or a rebuild on the other
// executor, both under parkMu, or a close/failure for good — so we wait the
// transition out on parkMu and look again.
//
// On a goroutine trunk the datagram is queued for the chain's source,
// dropping rather than blocking when the queue is full so one slow session
// cannot stall the engine's shared read loop: one atomic load, the enqueue,
// and one confirming load. The confirming load closes the park race: if park
// retired the queue between our load and the enqueue, the datagram could sit
// in a channel nothing reads, so we reclaim one buffer from the retired queue
// (ours, or an equivalent predecessor park's drain didn't own) and deliver it
// through the fresh state.
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
		n := uint64(len(b.B)) // read before the hand-off: the chain owns b afterwards
		if fc := cs.frames; fc != nil {
			if fc.Enter() {
				s.counters.Packets.Add(1)
				s.counters.Bytes.Add(n)
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
			// Still the same incarnation, so it is gone for good: the session
			// is closing, or a stage failed on another reader's frame.
			if err := fc.Err(); err != nil {
				s.eng.chainFailed(s, cs, err)
			}
			s.counters.Drops.Add(1)
			b.Release()
			return
		}
		select {
		case cs.in <- b:
		default:
			s.counters.Drops.Add(1)
			b.Release()
			return
		}
		if s.cs.Load() == cs {
			s.counters.Packets.Add(1)
			s.counters.Bytes.Add(n)
			return
		}
		select {
		case b = <-cs.in:
			// Park raced us; go around with the reclaimed buffer.
		default:
			// Park's drain (or the old chain, before it stopped) took
			// ownership of our datagram; either way it is not lost.
			s.counters.Packets.Add(1)
			s.counters.Bytes.Add(n)
			return
		}
	}
}

// recv feeds a goroutine incarnation's UDPSource: it blocks for the next
// queued datagram, strips the session-ID prefix, and returns io.EOF once the
// incarnation is parked or the session is closed.
func (s *Session) recv(cs *chainState) (*packet.Buf, error) {
	select {
	case b := <-cs.in:
		b.B = b.B[packet.SessionIDSize:]
		return b, nil
	case <-cs.stop:
		return nil, io.EOF
	case <-s.done:
		return nil, io.EOF
	}
}

// send relays one trunk-output frame; b.B starts with SessionIDSize bytes of
// headroom followed by the frame. On the delivery-tree path the tree stamps
// the session ID into the headroom once and tees the frame into every
// delivery cohort by reference; otherwise the session ID is stamped in place
// and the whole buffer is one datagram for the owning shard's batched writer.
// Routing every datagram of a session through one shard writer preserves
// per-session output order; a full writer queue drops (UDP-style, counted)
// rather than blocking the trunk. send owns b until the enqueue. It runs on
// the sink goroutine of a goroutine trunk and under the executor's lock of a
// frame-native one, so calls for one incarnation never overlap.
func (s *Session) send(cs *chainState, b *packet.Buf) {
	if cs.tree != nil {
		cs.tree.dispatch(b)
		return
	}
	packet.PutSessionID(b.B, s.id)
	if s.eng.group != nil {
		// Fan-out: the writer snapshots the receiver group at flush time so
		// membership changes apply to queued datagrams too.
		s.shard.enqueue(outbound{s: s, b: b, fan: true})
		return
	}
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

// close terminates the session: the adaptation plane stops first (so no
// splice can race the teardown), then the trunk's executor stops — a frame
// chain flushes what its stages hold and closes, a goroutine chain's source
// observes EOF and its stages stop — the delivery branches drain and stop in
// turn, and queued buffers are returned to the pool. A parked session closes
// by just releasing its slot in the parked gauge — there is nothing else left
// to stop.
func (s *Session) close() error {
	s.closeOnce.Do(func() {
		s.parkMu.Lock()
		defer s.parkMu.Unlock()
		cs := s.cs.Load()
		if cs != nil {
			// Retire before stopping so the failure path recognizes the
			// deliberate teardown.
			cs.retired.Store(true)
			if cs.adaptor != nil {
				cs.adaptor.stop()
			}
		}
		close(s.done)
		if cs != nil {
			s.closeErr = cs.stopExecutor()
			if cs.tree != nil {
				// The trunk is stopped, so no dispatch is in flight; tear the
				// branches down after it so trailing trunk output still fanned
				// out.
				cs.tree.close()
			}
			for _, b := range cs.drainQueue() {
				b.Release()
			}
		}
		if s.parked.CompareAndSwap(true, false) {
			s.shard.counters.parkedNow.Add(-1)
		}
	})
	return s.closeErr
}

// drainQueue empties a goroutine incarnation's inbound queue without blocking
// (nil for a frame-native incarnation, which has none).
func (cs *chainState) drainQueue() []*packet.Buf {
	var out []*packet.Buf
	for {
		select {
		case b := <-cs.in:
			out = append(out, b)
		default:
			return out
		}
	}
}
