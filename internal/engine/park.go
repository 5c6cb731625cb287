package engine

import (
	"errors"
	"fmt"
	"time"

	"rapidware/internal/metrics"
)

// Idle-session parking: the mechanism that lets the engine hold a million
// mostly-idle sessions. A live session holds its trunk's stage instances and
// whatever they retain (FEC groups, retransmission and replay windows) and,
// on fan-out, its delivery cohorts. After Config.IdleTTL with no traffic the
// engine's maintenance tick *parks* the session: its trunk is flushed and
// dropped, and all that remains is the Session struct — identity, counters,
// peer — plus the canonical compose.Plan and an adaptation snapshot. The
// first inbound datagram (or control operation) *unparks* it by rebuilding
// the trunk from the retained plan, transparently to peers. Parked sessions
// keep their registration: the session ID, its pinned peer and its counters
// all survive, so parking is invisible except as first-packet rebuild
// latency.

// errSessionClosed reports an unpark attempt on a closed session.
var errSessionClosed = errors.New("engine: session closed")

// park tears down the session's chain incarnation, retaining only the compact
// parked record. It reports whether the session transitioned live→parked; a
// parked or closed session has no chain to tear down. Parking never loses a
// datagram: the trunk is closed under its lock, and a datagram that loses
// that race finds it closed and unparks.
func (s *Session) park() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.cs.Load()
	if cs == nil {
		return false
	}
	s.parkedPlan = cs.live.Plan()
	snap, err := s.retireLocked(cs)
	if err != nil {
		s.eng.logf("session %d: park: %v", s.id, err)
	}
	s.parkedAdapt = snap
	s.eng.table.relist(s, true)
	s.shard.counters.parks.Add(1)
	return true
}

// retireLocked stops one incarnation without losing what it holds — the
// teardown park and close share — and returns its final adaptation snapshot
// (nil without the feedback plane). The trunk loop is snapshotted first; then,
// as one batch, the trunk flushes every stage through send and closes, under
// its own lock, and the delivery tree flushes, closes and snapshots its members
// after it. Every decision is made under mu, as this is, so the snapshot is the
// last decision applied. The incarnation stops being current before mu is
// released: a chain-failure report for it then evicts nothing. Caller holds mu.
func (s *Session) retireLocked(cs *chainState) (*metrics.AdaptStats, error) {
	var snap *metrics.AdaptStats
	if cs.trunk != nil {
		snap = adaptStats(cs.trunk)
	}
	s.eng.beginBatch()
	defer s.eng.endBatch()
	err := cs.frames.Close()
	if cs.tree != nil {
		snap = cs.tree.close()
	}
	s.cs.Store(nil)
	return snap, err
}

// unpark returns the session's chain-bound state, rebuilding it from the
// retained plan first when the session is parked: the slow path of deliver
// (first datagram after an idle period).
func (s *Session) unpark() (*chainState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveLocked()
}

// liveLocked is unpark with mu held, for control operations that act on the
// chain under the same lock.
func (s *Session) liveLocked() (*chainState, error) {
	if cs := s.cs.Load(); cs != nil {
		return cs, nil
	}
	if s.closed {
		return nil, errSessionClosed
	}
	cs, err := s.eng.buildChainState(s, s.parkedPlan)
	if err != nil {
		s.shard.counters.chainErrors.Add(1)
		s.eng.logf("session %d: unpark: %v", s.id, err)
		return nil, err
	}
	s.cs.Store(cs)
	s.idleSince.Store(time.Now().UnixNano())
	s.idleSeen.Store(s.activitySum())
	s.eng.table.relist(s, false)
	s.shard.counters.unparks.Add(1)
	return cs, nil
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
	labelGoroutine("loop", "maint")
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			e.maintain(time.Now())
		case <-e.stop:
			return
		}
	}
}

// maintain runs one maintenance tick at the given time: every live session's
// receivers whose last report is older than ReportStaleness are expired (when
// aging is on), and every live session whose activity sum hasn't moved since
// the previous tick for at least IdleTTL is parked. The tick copies the
// table's live lists into a scratch slice it keeps between ticks, so it never
// sees a parked session and allocates nothing in steady state. Taking `now`
// as a parameter keeps the tick deterministic under test.
func (e *Engine) maintain(now time.Time) {
	window := e.cfg.ReportStaleness
	sweep := e.adaptOn && window > 0
	harvest := e.cfg.IdleTTL > 0
	if !sweep && !harvest {
		return
	}
	nanos := now.UnixNano()
	e.maintMu.Lock()
	live := e.table.appendLive(e.maintLive[:0])
	for _, s := range live {
		if sweep {
			s.sweep(nanos, window)
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
	clear(live) // the scratch holds no session past the tick
	e.maintLive = live[:0]
	e.maintMu.Unlock()
}

// harvestOldestIdle frees one admission slot under the AdmitHarvest policy by
// evicting the table's victim (table.victim): the longest-parked session,
// found at the head of a parked list in O(shards), else the live session
// idle the longest. It reports whether a slot was freed.
func (e *Engine) harvestOldestIdle(incoming uint32) bool {
	victim := e.table.victim(incoming)
	if victim == nil {
		return false
	}
	if ok, _ := e.evict(victim, nil); !ok {
		// Somebody else (a concurrent harvest, close, or a chain failure)
		// beat us to this victim; report failure and let the caller retry.
		return false
	}
	victim.shard.counters.harvested.Add(1)
	e.logf("session %d: harvested for admission", victim.id)
	return true
}
