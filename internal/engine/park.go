package engine

import (
	"errors"
	"fmt"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// Idle-session parking: the mechanism that lets the engine hold a million
// mostly-idle sessions. A live session holds its trunk's stage instances and
// whatever they retain (FEC groups, retransmission and replay windows); on a
// goroutine trunk also a goroutine per stage, their stream buffers and a queue
// of pooled buffers; with adaptation a bus goroutine. After Config.IdleTTL
// with no traffic the engine's maintenance tick *parks* the session: its
// trunk is flushed and dropped, and all that remains is the Session struct —
// identity, counters, peer — plus the canonical compose.Plan and an
// adaptation snapshot. The first inbound datagram (or control operation)
// *unparks* it by rebuilding the trunk from the retained plan, transparently
// to peers. Parked sessions keep their registration: the session ID, its
// pinned peer and its counters all survive, so parking is invisible except as
// first-packet rebuild latency.
//
// The same teardown-and-rebuild, minus the idle period, moves a live session
// between the two executors when a recompose crosses the frame-native
// boundary (rebuildLocked).

// errSessionClosed reports an unpark attempt on a session that is being torn
// down.
var errSessionClosed = errors.New("engine: session closed")

// park tears down the session's chain incarnation, retaining only the compact
// parked record. It reports whether the session transitioned live→parked.
// Parking never loses a datagram: a frame-native trunk is simply closed under
// its lock (a datagram that loses that race finds it closed and unparks), and
// datagrams that raced into a goroutine trunk's retiring queue are reclaimed
// and re-delivered through a fresh incarnation.
func (s *Session) park() bool {
	s.parkMu.Lock()
	defer s.parkMu.Unlock()
	select {
	case <-s.done:
		return false
	default:
	}
	cs := s.cs.Load()
	if cs == nil {
		return false
	}
	var snap = s.parkedAdapt
	if cs.adaptor != nil {
		snap = cs.adaptor.stats()
	}
	s.retireLocked(cs)
	// The plan is captured after the stop so a recompose that won the splice
	// lock before quiescence is retained, not lost.
	s.parkedPlan = cs.live.Plan()
	s.parkedAdapt = snap
	s.cs.Store(nil)
	s.parked.Store(true)
	s.shard.counters.parkedNow.Add(1)
	s.shard.counters.parks.Add(1)
	// Reclaim datagrams that raced past deliver's confirming load into a
	// goroutine trunk's retired queue: they are exactly the traffic that
	// proves the session is not idle after all, so rebuild immediately and
	// re-deliver them in order.
	if leftovers := cs.drainQueue(); len(leftovers) > 0 {
		ncs, err := s.unparkLocked()
		s.redeliver(ncs, err, leftovers)
	}
	return true
}

// retireLocked stops one incarnation without losing what it holds — the
// teardown park and rebuildLocked share. The adaptation plane goes first (its
// responder must not be left blocking on the splice lock we are about to
// take); then, under that lock so no recompose is mid-swap, the executor
// drains: a frame chain flushes every stage through send and closes, all under
// its own lock, and a goroutine chain is fed io.EOF at the source (cs.stop) so
// the EOF cascades down the chain, each stage draining what is buffered and
// flushing what it holds before observing it, until the sink has emitted
// every in-flight frame and exits — only then is the chain formally stopped
// (Stop earlier would force-close the interior streams and discard whatever
// was mid-chain). The retired flag tells the failure path this teardown is
// deliberate. Caller holds parkMu and swaps s.cs afterwards.
func (s *Session) retireLocked(cs *chainState) {
	cs.retired.Store(true)
	if cs.adaptor != nil {
		cs.adaptor.stop()
	}
	cs.live.Quiesce(func() {
		if cs.frames == nil {
			close(cs.stop)
			cs.sink.Wait()
		}
		if err := cs.stopExecutor(); err != nil {
			s.eng.logf("session %d: retire: %v", s.id, err)
		}
	})
	if cs.tree != nil {
		cs.tree.close()
	}
}

// redeliver feeds datagrams reclaimed from a retired goroutine incarnation's
// queue (session ID still prefixed) to its successor ncs, in order. Each was
// already counted by its deliverer (the confirming-load protocol guarantees
// exactly one of deliver and the reclaiming drain owns it), so nothing is
// recounted; err is the successor's build error, in which case they are
// dropped. Caller holds parkMu, so a stage failure on a frame-native
// successor is left for the next datagram's deliver to report.
func (s *Session) redeliver(ncs *chainState, err error, leftovers []*packet.Buf) {
	for _, b := range leftovers {
		switch {
		case err != nil:
		case ncs.frames != nil:
			b.B = b.B[packet.SessionIDSize:]
			if ncs.frames.Process(b) == filter.ErrFrameChainClosed {
				break // failed on an earlier leftover; b is still ours
			}
			continue
		default:
			select {
			case ncs.in <- b:
				continue
			default:
			}
		}
		s.counters.Drops.Add(1)
		b.Release()
	}
}

// unpark rebuilds a parked session's chain from its retained plan. It is the
// slow path of deliver (first datagram after an idle period) and of control
// operations addressing a parked session; on a live session it is a no-op
// returning the current state.
func (s *Session) unpark() (*chainState, error) {
	s.parkMu.Lock()
	defer s.parkMu.Unlock()
	return s.liveLocked()
}

// liveLocked returns the session's chain-bound state, rebuilding it first
// when the session is parked. Caller holds parkMu.
func (s *Session) liveLocked() (*chainState, error) {
	if cs := s.cs.Load(); cs != nil {
		return cs, nil
	}
	select {
	case <-s.done:
		return nil, errSessionClosed
	default:
	}
	return s.unparkLocked()
}

// unparkLocked does the rebuild; the caller holds parkMu and has verified the
// session is parked and not closed.
func (s *Session) unparkLocked() (*chainState, error) {
	cs, err := s.eng.buildChainState(s, s.parkedPlan, nil)
	if err != nil {
		s.shard.counters.chainErrors.Add(1)
		s.eng.logf("session %d: unpark: %v", s.id, err)
		return nil, err
	}
	s.cs.Store(cs)
	s.parked.Store(false)
	s.idleSince.Store(time.Now().UnixNano())
	s.idleSeen.Store(s.activitySum())
	s.shard.counters.parkedNow.Add(-1)
	s.shard.counters.unparks.Add(1)
	return cs, nil
}

// rebuildLocked moves a live session's trunk to the target plan on the other
// executor: the plan gained its first stage without a frame form (a timed
// stage, typically) and must leave the inline path, or lost its last one and
// can return to it. The old incarnation is retired exactly as park would —
// everything in flight and everything its stages hold is flushed through to
// send — and the new one is built from the target with every matching stage
// instance carried over, so counters, retransmission history and replay
// windows survive the move and no frame is lost. A target that fails to build
// leaves the session parked on its previous plan. Caller holds parkMu.
func (s *Session) rebuildLocked(cs *chainState, target compose.Plan) (*chainState, error) {
	e := s.eng
	// Validate before tearing anything down: a bad spec must leave the
	// running trunk untouched.
	if err := e.reg.Validate(target, e.trunkMode()); err != nil {
		return cs, err
	}
	s.retireLocked(cs)
	ncs, err := e.buildChainState(s, target, cs.live)
	if err != nil {
		// Nothing to run the session on: leave it parked on its previous
		// plan, so the next datagram or control operation rebuilds that.
		e.logf("session %d: rebuild on %q: %v", s.id, target.String(), err)
		s.parkedPlan = cs.live.Plan()
		s.cs.Store(nil)
		s.parked.Store(true)
		s.shard.counters.parkedNow.Add(1)
		s.shard.counters.parks.Add(1)
	} else {
		s.cs.Store(ncs)
	}
	s.redeliver(ncs, err, cs.drainQueue())
	return ncs, err
}

// ensureLive returns the session's chain-bound state for a control operation,
// rebuilding it first when the session is parked. The control touch counts as
// activity so an operator composing a session holds its idle clock back.
func (s *Session) ensureLive() (*chainState, error) {
	s.ctlActivity.Add(1)
	if cs := s.cs.Load(); cs != nil {
		return cs, nil
	}
	return s.unpark()
}

// ParkSession immediately parks the session with the given ID, as the idle
// harvester would after the TTL. Exposed for operators draining capacity
// ahead of load and for benchmarks; parking an already-parked session is a
// no-op.
func (e *Engine) ParkSession(id uint32) error {
	s := e.table.lookup(id)
	if s == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	s.park()
	return nil
}

// maintInterval derives the single maintenance ticker's period from the two
// concerns it serves: stale-receiver sweeps resolve at a quarter of the
// report-staleness window, idle harvesting at a quarter of the idle TTL.
// Returns 0 when neither concern is configured (no ticker goroutine at all).
func (e *Engine) maintInterval() time.Duration {
	var iv time.Duration
	if e.adaptOn && e.cfg.ReportStaleness > 0 {
		iv = e.cfg.ReportStaleness / 4
	}
	if ttl := e.cfg.IdleTTL; ttl > 0 {
		if q := ttl / 4; iv == 0 || q < iv {
			iv = q
		}
	}
	if iv > 0 && iv < time.Millisecond {
		iv = time.Millisecond
	}
	return iv
}

// maintenanceLoop is the engine's one timer goroutine: it drives both
// stale-receiver aging and idle-session harvesting from a single ticker,
// instead of one timer per concern per session.
func (e *Engine) maintenanceLoop(interval time.Duration) {
	defer e.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			e.maintain(time.Now())
		case <-e.stopWriters:
			return
		}
	}
}

// maintain runs one maintenance tick at the given time: every live session's
// observers are swept for stale receivers (when aging is on), and every live
// session whose activity sum hasn't moved since the previous tick for at
// least IdleTTL is parked. Taking `now` as a parameter keeps the tick
// deterministic under test. Parked sessions are skipped — they cost nothing
// and have nothing to sweep.
func (e *Engine) maintain(now time.Time) {
	sweep := e.adaptOn && e.cfg.ReportStaleness > 0
	harvest := e.cfg.IdleTTL > 0
	if !sweep && !harvest {
		return
	}
	nanos := now.UnixNano()
	for _, s := range e.table.snapshot() {
		cs := s.cs.Load()
		if cs == nil {
			continue
		}
		if sweep && cs.adaptor != nil {
			// Stamp lastSweep so the report path's opportunistic sweep backs
			// off past this one.
			cs.adaptor.lastSweep.Store(nanos)
			cs.adaptor.sweepAll()
		}
		if harvest {
			if sum := s.activitySum(); sum != s.idleSeen.Load() {
				s.idleSeen.Store(sum)
				s.idleSince.Store(nanos)
				continue
			}
			if nanos-s.idleSince.Load() >= int64(e.cfg.IdleTTL) {
				s.park()
			}
		}
	}
}

// harvestOldestIdle frees one admission slot under the AdmitHarvest policy by
// evicting the best victim: a parked session if any, else the live session
// idle the longest. The scan starts at the table shard that will own the
// incoming ID — O(sessions/shards) in the common case — and walks subsequent
// shards only if that one is empty. It reports whether a slot was freed.
func (e *Engine) harvestOldestIdle(incoming uint32) bool {
	victim := e.table.oldestIdle(incoming)
	if victim == nil {
		return false
	}
	if !e.table.remove(victim.id, victim) {
		// Somebody else (a concurrent harvest, close, or the exit hook) beat
		// us to this victim; report failure and let the caller retry.
		return false
	}
	e.active.Add(-1)
	victim.shard.counters.harvested.Add(1)
	e.logf("session %d: harvested for admission", victim.id)
	victim.close()
	return true
}
