package multicast

import (
	"net/netip"
	"sync"
	"testing"
)

func TestAddrGroupMembership(t *testing.T) {
	g := NewAddrGroup("fanout")
	if g.Name() != "fanout" {
		t.Fatalf("Name = %q", g.Name())
	}
	if members(g) != nil || g.Len() != 0 {
		t.Fatal("new group not empty")
	}
	a := netip.MustParseAddrPort("127.0.0.1:9001")
	b := netip.MustParseAddrPort("127.0.0.1:9000")
	if !g.Add(a) || !g.Add(b) {
		t.Fatal("Add reported existing member")
	}
	if g.Add(a) {
		t.Fatal("duplicate Add reported new member")
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	// The snapshot is sorted for determinism.
	snap := members(g)
	if len(snap) != 2 || snap[0] != b || snap[1] != a {
		t.Fatalf("members = %v, want sorted [%v %v]", snap, b, a)
	}
	if !g.Remove(a) {
		t.Fatal("Remove missed a member")
	}
	if g.Remove(a) {
		t.Fatal("second Remove reported a member")
	}
	if snap := members(g); len(snap) != 1 || snap[0] != b {
		t.Fatalf("members after Remove = %v", snap)
	}
	g.Remove(b)
	if members(g) != nil {
		t.Fatal("empty group snapshot not nil")
	}
}

func TestAddrGroupUnmapsMappedAddrs(t *testing.T) {
	g := NewAddrGroup("")
	mapped := netip.MustParseAddrPort("[::ffff:127.0.0.1]:9000")
	plain := netip.MustParseAddrPort("127.0.0.1:9000")
	g.Add(mapped)
	if g.Add(plain) {
		t.Fatal("mapped and unmapped forms treated as distinct members")
	}
	if snap := members(g); len(snap) != 1 || snap[0] != plain {
		t.Fatalf("members = %v, want the unmapped form", snap)
	}
	if !g.Remove(mapped) {
		t.Fatal("Remove with the mapped form missed the member")
	}
}

// TestAddrGroupVersionTracksMembership checks that the version counter moves
// exactly when membership actually changes, and that SnapshotVersion returns
// a consistent pair.
func TestAddrGroupVersionTracksMembership(t *testing.T) {
	g := NewAddrGroup("versioned")
	v0 := g.Version()
	a := netip.MustParseAddrPort("127.0.0.1:9001")
	g.Add(a)
	v1 := g.Version()
	if v1 == v0 {
		t.Fatal("Add did not bump the version")
	}
	if g.Add(a) {
		t.Fatal("duplicate add reported new")
	}
	if g.Version() != v1 {
		t.Fatal("no-op Add bumped the version")
	}
	snap, v := g.SnapshotVersion()
	if v != v1 || len(snap) != 1 || snap[0] != a {
		t.Fatalf("SnapshotVersion = %v, %d; want [%v], %d", snap, v, a, v1)
	}
	g.Remove(a)
	if g.Version() == v1 {
		t.Fatal("Remove did not bump the version")
	}
	if g.Remove(a) {
		t.Fatal("second remove reported a member")
	}
	v2 := g.Version()
	if g.Version() != v2 {
		t.Fatal("no-op Remove bumped the version")
	}
	if snap, v := g.SnapshotVersion(); snap != nil || v != v2 {
		t.Fatalf("empty SnapshotVersion = %v, %d", snap, v)
	}
}

// TestAddrGroupConcurrentAccess runs mutators against snapshot readers; it
// exists to be run with -race (the snapshot must be immutable once
// published).
func TestAddrGroupConcurrentAccess(t *testing.T) {
	g := NewAddrGroup("race")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ap := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.1"), uint16(w*200+i+1))
				g.Add(ap)
				g.Remove(ap)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, ap := range members(g) {
					_ = ap.Port()
				}
				g.Len()
			}
		}()
	}
	wg.Wait()
	if g.Len() != 0 {
		t.Fatalf("Len = %d after balanced add/remove", g.Len())
	}
}

// members returns g's membership snapshot.
func members(g *AddrGroup) []netip.AddrPort {
	snap, _ := g.SnapshotVersion()
	return snap
}
