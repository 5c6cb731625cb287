package engine

import (
	"sync"
	"sync/atomic"
)

// table is the engine's sharded session registry. Session IDs hash onto a
// power-of-two number of shards, each an independently locked map, so
// concurrent open/lookup/close on different shards never contend and no
// global lock exists anywhere on the data path. The shard count equals the
// engine's reader/writer count: shard i's sessions are owned by reader and
// writer goroutine i.
type table struct {
	mask   uint32
	shards []tableShard
}

// tableShard is one lock domain of the session table. n mirrors
// len(sessions) as an atomic gauge maintained at every insert and remove, so
// count/countShard — and through them admission checks and Stats — read O(1)
// per shard instead of walking the maps under their locks. The trailing pad
// keeps neighboring shards' locks on separate cache lines so a hot shard
// cannot false-share with its neighbors.
type tableShard struct {
	mu       sync.RWMutex
	sessions map[uint32]*Session
	n        atomic.Int64
	_        [24]byte
}

// newTable returns a table with n shards; n must be a power of two.
func newTable(n int) *table {
	t := &table{mask: uint32(n - 1), shards: make([]tableShard, n)}
	for i := range t.shards {
		t.shards[i].sessions = make(map[uint32]*Session)
	}
	return t
}

// hashSessionID mixes a session ID so that sequential IDs (the common
// allocation pattern for clients) spread uniformly across shards: Knuth's
// multiplicative hash pushes entropy into the high bits, and the xor-fold
// brings it back down to where the shard mask looks.
func hashSessionID(id uint32) uint32 {
	h := id * 2654435761 // 2^32 / golden ratio
	return h ^ h>>16
}

// shardIndex returns the shard owning id.
func (t *table) shardIndex(id uint32) uint32 { return hashSessionID(id) & t.mask }

// lookup returns the session with the given ID, or nil.
func (t *table) lookup(id uint32) *Session {
	sh := &t.shards[t.shardIndex(id)]
	sh.mu.RLock()
	s := sh.sessions[id]
	sh.mu.RUnlock()
	return s
}

// insert registers s under its shard lock. reject is evaluated while the lock
// is held (the engine passes its closed flag) and aborts the insert. The
// returns are: the session now registered under id (s on success, the
// existing winner when another inserter raced us in, nil when rejected), and
// whether s itself was inserted.
func (t *table) insert(id uint32, s *Session, reject func() bool) (*Session, bool) {
	sh := &t.shards[t.shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if reject() {
		return nil, false
	}
	if cur, ok := sh.sessions[id]; ok {
		return cur, false
	}
	sh.sessions[id] = s
	sh.n.Add(1)
	return s, true
}

// remove deletes id only while it still maps to s, so a stale evictor cannot
// tear down a successor session reusing the ID. It reports whether the entry
// was removed.
func (t *table) remove(id uint32, s *Session) bool {
	sh := &t.shards[t.shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sessions[id] != s {
		return false
	}
	delete(sh.sessions, id)
	sh.n.Add(-1)
	return true
}

// count returns the number of registered sessions across all shards. It sums
// the per-shard gauges — no locks, no map walks — so stats and admission stay
// O(shards) no matter how many sessions are registered.
func (t *table) count() int {
	n := int64(0)
	for i := range t.shards {
		n += t.shards[i].n.Load()
	}
	return int(n)
}

// countShard returns the number of sessions owned by shard i, lock-free.
func (t *table) countShard(i int) int {
	return int(t.shards[i].n.Load())
}

// oldestIdle returns the best admission-harvest victim: preferring parked
// sessions over live ones, and among equals the one whose last observed
// activity is oldest. The scan starts in the shard that will own the incoming
// ID (so at capacity it touches one map of ~sessions/shards entries) and
// walks the remaining shards only while coming up empty.
func (t *table) oldestIdle(incoming uint32) *Session {
	start := t.shardIndex(incoming)
	for off := uint32(0); off <= t.mask; off++ {
		sh := &t.shards[(start+off)&t.mask]
		var best *Session
		var bestParked bool
		var bestSince int64
		sh.mu.RLock()
		for id, s := range sh.sessions {
			if id == incoming {
				continue
			}
			parked, since := s.cs.Load() == nil, s.idleSince.Load()
			switch {
			case best == nil,
				parked && !bestParked,
				parked == bestParked && since < bestSince:
				best, bestParked, bestSince = s, parked, since
			}
		}
		sh.mu.RUnlock()
		if best != nil {
			return best
		}
	}
	return nil
}

// snapshot returns every live session. Order is unspecified.
func (t *table) snapshot() []*Session {
	var out []*Session
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	return out
}

// sweep removes and returns every live session (engine shutdown).
func (t *table) sweep() []*Session {
	var out []*Session
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.sessions = make(map[uint32]*Session)
		sh.n.Store(0)
		sh.mu.Unlock()
	}
	return out
}
