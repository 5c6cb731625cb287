package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// errTrip is what the trip stage fails with.
var errTrip = errors.New("trip")

// newTripEngine returns a started harvest-admission engine of capSessions
// whose trunk is one "trip" stage: it passes every frame on, except that a
// data frame whose payload ends in "boom" fails the chain.
func newTripEngine(t *testing.T, capSessions int) *Engine {
	t.Helper()
	e, err := New(Config{ListenAddr: "127.0.0.1:0", Shards: 4, IdleTTL: time.Hour,
		MaxSessions: capSessions, Admission: AdmitHarvest})
	if err != nil {
		t.Fatal(err)
	}
	withStage(t, e, compose.Definition{
		Kind: "trip",
		Build: func(compose.Env, string) (filter.Filter, error) {
			return filter.NewFrame("trip", func(b *packet.Buf, emit func(*packet.Buf)) error {
				if bytes.HasSuffix(b.B, []byte("boom")) {
					b.Release()
					return errTrip
				}
				emit(b)
				return nil
			}, nil), nil
		},
	}, "trip")
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// checkSessionLists verifies the table's list invariant on a quiescent
// engine: every registered session is on exactly one list of its shard —
// the live list exactly when it has a chain, the parked list otherwise —
// each list is well linked and its gauge matches its length, nothing
// unregistered is on a list, and the parked gauges Stats reports are the
// parked lists' lengths. After Engine.Close every list must be empty.
func checkSessionLists(t *testing.T, e *Engine, step string) {
	t.Helper()
	parked, registered := 0, 0
	for i := range e.table.shards {
		sh := &e.table.shards[i]
		if err := checkShardLists(sh); err != nil {
			t.Fatalf("%s: shard %d: %v", step, i, err)
		}
		parked += int(sh.parked.n.Load())
		registered += int(sh.n.Load())
		if got := e.shards[i].stats().Parked; got != int(sh.parked.n.Load()) {
			t.Fatalf("%s: shard %d: ShardStats.Parked = %d, parked list holds %d", step, i, got, sh.parked.n.Load())
		}
	}
	if st := e.Stats(); st.ParkedSessions != parked || st.ActiveSessions != registered || int(e.active.Load()) != registered {
		t.Fatalf("%s: Stats %d parked / %d active, admission gauge %d; lists hold %d parked of %d",
			step, st.ParkedSessions, st.ActiveSessions, e.active.Load(), parked, registered)
	}
	if e.closed.Load() && registered != 0 {
		t.Fatalf("%s: %d sessions still listed after Close", step, registered)
	}
}

// checkShardLists checks one table shard's lists under its lock.
func checkShardLists(sh *tableShard) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	on := make(map[*Session]*sessionList)
	for _, l := range []*sessionList{&sh.live, &sh.parked} {
		n := 0
		var prev *Session
		for s := l.head; s != nil; s = s.next {
			if on[s] != nil {
				return fmt.Errorf("session %d is on a list twice", s.id)
			}
			if s.list != l || s.prev != prev {
				return fmt.Errorf("session %d is mislinked", s.id)
			}
			on[s] = l
			prev = s
			n++
		}
		if l.tail != prev || l.n.Load() != int64(n) {
			return fmt.Errorf("list tail or gauge (%d) disagrees with its %d sessions", l.n.Load(), n)
		}
	}
	if len(on) != len(sh.sessions) || int64(len(on)) != sh.n.Load() {
		return fmt.Errorf("%d sessions on lists, %d registered (gauge %d)", len(on), len(sh.sessions), sh.n.Load())
	}
	for id, s := range sh.sessions {
		l := on[s]
		if l == nil || s.id != id {
			return fmt.Errorf("registered session %d is on no list", id)
		}
		if live := s.cs.Load() != nil; live != (l == &sh.live) {
			return fmt.Errorf("session %d has a chain %v but is on the live list %v", id, live, l == &sh.live)
		}
	}
	return nil
}

// TestSessionListsInvariant runs seeded random schedules of every session
// lifecycle transition — open (harvesting at the cap), datagram-driven
// unpark, maintenance parking, ParkSession, an edit of a parked session,
// CloseSession, chain-failure eviction and Engine.Close — some steps running
// several at once, and checks the table's list invariant after every step.
func TestSessionListsInvariant(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runListSchedule(t, seed) })
	}
}

func runListSchedule(t *testing.T, seed int64) {
	const (
		capSessions = 8
		ids         = 24
		steps       = 400
	)
	rng := rand.New(rand.NewSource(seed))
	e := newTripEngine(t, capSessions)
	// The sessions' peer: a socket nobody reads, so their output goes nowhere.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	peer := sink.LocalAddr().(*net.UDPAddr).AddrPort()

	clock := time.Now()
	var seq atomic.Uint64
	// datagram hands one data datagram for id to reader r, as its read loop
	// would.
	datagram := func(r int, id uint32, payload string) {
		d, err := packet.AppendDatagram(nil, id, &packet.Packet{Seq: seq.Add(1), StreamID: id, Kind: packet.KindData, Payload: []byte(payload)})
		if err != nil {
			t.Error(err)
			return
		}
		b := packet.GetBuf(packet.MaxDatagram)
		n := copy(b.B, d)
		e.shards[r].handleDatagram(b, n, peer)
	}
	send := func(r int, id uint32) { datagram(r, id, "data") }
	// Traffic is weighted so the table keeps filling to the cap and opens
	// harvest.
	ops := []struct {
		name string
		run  func(r int, id uint32)
	}{
		{"datagram", send},
		{"datagram", send},
		{"datagram", send},
		{"fail", func(r int, id uint32) { datagram(r, id, "boom") }},
		{"tick", func(int, uint32) {
			e.maintain(clock)
			clock = clock.Add(time.Hour)
		}},
		{"park", func(_ int, id uint32) { e.ParkSession(id) }},
		{"edit", func(_ int, id uint32) {
			spec := []string{"trip", "trip,counting"}[id%2]
			e.EditSession(id, "", compose.Replace(spec))
		}},
		{"close-session", func(_ int, id uint32) { e.CloseSession(id) }},
	}
	for step := 0; step < steps; step++ {
		// One to four operations per step, concurrently, each on its own
		// reader; at most one maintenance tick, since it advances the clock.
		n := 1 + rng.Intn(len(e.shards))
		var wg sync.WaitGroup
		var names []string
		ticked := false
		for r := 0; r < n; r++ {
			op := ops[rng.Intn(len(ops))]
			if op.name == "tick" {
				if ticked {
					continue
				}
				ticked = true
			}
			id := uint32(1 + rng.Intn(ids))
			names = append(names, fmt.Sprintf("%s(%d)", op.name, id))
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				op.run(r, id)
			}(r)
		}
		wg.Wait()
		checkSessionLists(t, e, fmt.Sprintf("step %d %v", step, names))
	}
	if seed%2 == 0 {
		// Close's window, stepped through: a session swept from the table
		// but not yet closed can still park and unpark, and must stay off
		// every list while it does.
		swept := e.table.sweep()
		e.active.Add(-int64(len(swept)))
		for i, s := range swept {
			if i%2 == 0 {
				s.park()
			} else {
				s.unpark()
			}
		}
		checkSessionLists(t, e, "swept")
		for _, s := range swept {
			s.close()
		}
	}
	// Close races one last burst of traffic and parking.
	var wg sync.WaitGroup
	for r := 0; r < len(e.shards); r++ {
		id := uint32(1 + rng.Intn(ids))
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if r%2 == 0 {
				datagram(r, id, "data")
			} else {
				e.ParkSession(id)
			}
		}(r)
	}
	e.Close()
	wg.Wait()
	checkSessionLists(t, e, "after Close")
	if st := e.Stats(); st.Parks == 0 || st.Unparks == 0 || st.Harvested == 0 || st.ChainErrors == 0 {
		t.Fatalf("schedule missed a transition: %d parks, %d unparks, %d harvested, %d chain errors",
			st.Parks, st.Unparks, st.Harvested, st.ChainErrors)
	}
}
