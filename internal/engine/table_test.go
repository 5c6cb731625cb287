package engine

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

// TestShardIndexStable property-checks that session→shard placement is a
// pure function of the ID: any ID maps to the same in-range shard every
// time, on every table of the same width.
func TestShardIndexStable(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64} {
		a, b := newTable(n), newTable(n)
		prop := func(id uint32) bool {
			i := a.shardIndex(id)
			return i < uint32(n) && i == a.shardIndex(id) && i == b.shardIndex(id)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
	}
}

// TestShardIndexUniform checks that both sequential session IDs (the common
// client allocation pattern) and random IDs spread across shards without any
// shard drawing more than twice — or less than half — its fair share.
func TestShardIndexUniform(t *testing.T) {
	const ids = 4096
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{2, 4, 8, 16, 64} {
		tbl := newTable(n)
		check := func(kind string, next func(i int) uint32) {
			counts := make([]int, n)
			for i := 0; i < ids; i++ {
				counts[tbl.shardIndex(next(i))]++
			}
			mean := ids / n
			for sh, c := range counts {
				if c < mean/2 || c > mean*2 {
					t.Errorf("%d shards, %s ids: shard %d has %d of %d (mean %d)", n, kind, sh, c, ids, mean)
				}
			}
		}
		check("sequential", func(i int) uint32 { return uint32(i + 1) })
		check("random", func(int) uint32 { return rng.Uint32() })
	}
}

// TestTableInsertRemoveSemantics exercises the race-resolution contract:
// insert reports an existing winner instead of overwriting, reject aborts
// under the lock, and remove only deletes while the entry still maps to the
// same session.
func TestTableInsertRemoveSemantics(t *testing.T) {
	tbl := newTable(4)
	never := func() bool { return false }
	s1, s2 := &Session{id: 7}, &Session{id: 7}

	if got, inserted := tbl.insert(7, s1, never); !inserted || got != s1 {
		t.Fatalf("first insert = (%p, %v), want (s1, true)", got, inserted)
	}
	if got, inserted := tbl.insert(7, s2, never); inserted || got != s1 {
		t.Fatalf("racing insert = (%p, %v), want the winner s1 and false", got, inserted)
	}
	if got, inserted := tbl.insert(8, s2, func() bool { return true }); inserted || got != nil {
		t.Fatalf("rejected insert = (%p, %v), want (nil, false)", got, inserted)
	}
	if tbl.remove(7, s2) {
		t.Fatal("remove with a stale session succeeded")
	}
	if !tbl.remove(7, s1) {
		t.Fatal("remove with the registered session failed")
	}
	if tbl.lookup(7) != nil {
		t.Fatal("session still registered after remove")
	}
	if tbl.count() != 0 {
		t.Fatalf("count = %d, want 0", tbl.count())
	}
}

// TestResolveShards pins the Shards normalization: zero auto-sizes, values
// round up to powers of two, and the result stays within [1, maxShards].
func TestResolveShards(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 33: 64, 64: 64, 1000: 64}
	for in, want := range cases {
		if got := resolveShards(in); got != want {
			t.Errorf("resolveShards(%d) = %d, want %d", in, got, want)
		}
	}
	auto := resolveShards(0)
	if auto < 1 || auto > maxShards || auto&(auto-1) != 0 {
		t.Errorf("resolveShards(0) = %d, want a power of two in [1, %d]", auto, maxShards)
	}
}

// TestVictimIsLongestParked pins the admission harvester's victim rule: the
// longest-parked session first (never the incoming ID itself), else the live
// session idle the longest.
func TestVictimIsLongestParked(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1, IdleTTL: time.Hour})
	peer := netip.MustParseAddrPort("127.0.0.1:9")
	s := make(map[uint32]*Session)
	for id := uint32(1); id <= 4; id++ {
		var err error
		if s[id], err = e.openSession(id, peer); err != nil {
			t.Fatal(err)
		}
		s[id].idleSince.Store(int64(10 - id)) // 4 has been idle the longest
	}
	s[3].park()
	s[1].park()
	for _, c := range []struct {
		incoming, want uint32
	}{{99, 3}, {3, 1}} {
		if got := e.table.victim(c.incoming); got != s[c.want] {
			t.Fatalf("victim for %d = session %v, want %d (parked 3, then 1)", c.incoming, got.id, c.want)
		}
	}
	if _, err := s[3].unpark(); err != nil {
		t.Fatal(err)
	}
	if got := e.table.victim(99); got != s[1] {
		t.Fatalf("victim = session %d after 3 unparked, want 1", got.id)
	}
	if _, err := s[1].unpark(); err != nil {
		t.Fatal(err)
	}
	s[1].idleSince.Store(100)
	s[3].idleSince.Store(100)
	for _, c := range []struct {
		incoming, want uint32
	}{{99, 4}, {4, 2}} {
		if got := e.table.victim(c.incoming); got != s[c.want] {
			t.Fatalf("victim for %d with nothing parked = session %d, want the oldest-idle live %d", c.incoming, got.id, c.want)
		}
	}
}
