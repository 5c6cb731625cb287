package engine

import (
	"sync"
	"sync/atomic"
)

// table is the engine's sharded session registry. Session IDs hash onto a
// power-of-two number of shards, each an independently locked map, so
// concurrent open/lookup/close on different shards never contend and no
// global lock exists anywhere on the data path. The shard count equals the
// engine's reader count: shard i's sessions are owned by data-plane shard i,
// whose output queue carries their output.
type table struct {
	mask   uint32
	shards []tableShard
}

// tableShard is one lock domain of the session table. n mirrors
// len(sessions) as an atomic gauge maintained at every insert and remove, so
// count/countShard — and through them admission checks and Stats — read O(1)
// per shard instead of walking the maps under their locks.
//
// Every registered session is also on exactly one of the shard's two
// intrusive lists: live while it has a chain, parked while it has none. The
// parked list is ordered by park time, so its head is the admission
// harvester's victim, and the maintenance tick walks only the live list: a
// parked session costs a tick nothing. The lists change only where a session
// changes state — insert, park, unpark, remove, sweep — under the shard's
// lock. The trailing pad keeps neighboring shards' locks on separate cache
// lines so a hot shard cannot false-share with its neighbors.
type tableShard struct {
	mu       sync.RWMutex
	sessions map[uint32]*Session
	n        atomic.Int64
	live     sessionList
	parked   sessionList
	_        [40]byte
}

// sessionList is a doubly linked list of sessions threaded through
// Session.prev and Session.next; Session.list names the list a session is
// on. All of it is guarded by the owning table shard's lock. n mirrors the
// length as an atomic gauge, so Stats reads it without the lock.
type sessionList struct {
	head, tail *Session
	n          atomic.Int64
}

// push appends s at the tail.
func (l *sessionList) push(s *Session) {
	s.prev, s.next, s.list = l.tail, nil, l
	if l.tail != nil {
		l.tail.next = s
	} else {
		l.head = s
	}
	l.tail = s
	l.n.Add(1)
}

// unlink takes s off l, which must be the list s is on.
func (l *sessionList) unlink(s *Session) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		l.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		l.tail = s.prev
	}
	s.prev, s.next, s.list = nil, nil, nil
	l.n.Add(-1)
}

// reset empties l without touching the sessions on it.
func (l *sessionList) reset() {
	l.head, l.tail = nil, nil
	l.n.Store(0)
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
	sh.live.push(s) // s comes in with its chain built
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
	s.list.unlink(s)
	return true
}

// relist moves s to the tail of its shard's parked list, or of its live list
// when parked is false. Park and unpark call it under s.mu right after
// swapping s.cs, so a registered session is on the live list exactly while it
// has a chain. A session that is on no list — Engine.Close swept it, or it
// never got in — stays off.
func (t *table) relist(s *Session, parked bool) {
	sh := &t.shards[t.shardIndex(s.id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.list == nil {
		return
	}
	s.list.unlink(s)
	if parked {
		sh.parked.push(s)
	} else {
		sh.live.push(s)
	}
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

// parkedShard returns the number of parked sessions in shard i, lock-free.
func (t *table) parkedShard(i int) int {
	return int(t.shards[i].parked.n.Load())
}

// parked returns the number of parked sessions across all shards.
func (t *table) parked() int {
	n := int64(0)
	for i := range t.shards {
		n += t.shards[i].parked.n.Load()
	}
	return int(n)
}

// victim returns the admission harvester's victim for the incoming ID: the
// longest-parked session of the shard that will own incoming, else of the
// next shard holding a parked session — one list head per shard. Only when
// nothing is parked anywhere does it look at live sessions, taking the one
// idle the longest, searched shard by shard in the same order.
func (t *table) victim(incoming uint32) *Session {
	start := t.shardIndex(incoming)
	for off := uint32(0); off <= t.mask; off++ {
		sh := &t.shards[(start+off)&t.mask]
		sh.mu.RLock()
		s := sh.parked.head
		if s != nil && s.id == incoming {
			s = s.next
		}
		sh.mu.RUnlock()
		if s != nil {
			return s
		}
	}
	for off := uint32(0); off <= t.mask; off++ {
		sh := &t.shards[(start+off)&t.mask]
		var best *Session
		var bestSince int64
		sh.mu.RLock()
		for s := sh.live.head; s != nil; s = s.next {
			if since := s.idleSince.Load(); s.id != incoming && (best == nil || since < bestSince) {
				best, bestSince = s, since
			}
		}
		sh.mu.RUnlock()
		if best != nil {
			return best
		}
	}
	return nil
}

// appendLive appends every live session to dst and returns the result. It
// walks only the live lists, so parked sessions add nothing to its cost.
// Order is unspecified.
func (t *table) appendLive(dst []*Session) []*Session {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for s := sh.live.head; s != nil; s = s.next {
			dst = append(dst, s)
		}
		sh.mu.RUnlock()
	}
	return dst
}

// snapshot returns every registered session, live and parked. Order is
// unspecified.
func (t *table) snapshot() []*Session {
	out := make([]*Session, 0, t.count())
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

// sweep removes and returns every registered session (engine shutdown),
// taking each off its list.
func (t *table) sweep() []*Session {
	var out []*Session
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.sessions {
			s.prev, s.next, s.list = nil, nil, nil
			out = append(out, s)
		}
		sh.sessions = make(map[uint32]*Session)
		sh.n.Store(0)
		sh.live.reset()
		sh.parked.reset()
		sh.mu.Unlock()
	}
	return out
}
