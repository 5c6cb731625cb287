package engine

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
	"rapidware/internal/race"
)

// dialConn is a soak-test client socket: one *net.UDPConn carrying many
// session IDs, with bounded-retry echo confirmation. Each dialConn is used by
// at most one goroutine at a time.
type dialConn struct {
	t    *testing.T
	conn *net.UDPConn
	buf  []byte
}

func newDialConn(t *testing.T, addr net.Addr) *dialConn {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, addr.(*net.UDPAddr))
	if err != nil {
		t.Fatalf("DialUDP: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &dialConn{t: t, conn: conn, buf: make([]byte, packet.MaxDatagram)}
}

// echoAll sends one datagram per session ID and collects echoes with bounded
// resend rounds (loopback UDP can still drop under load). It returns how many
// sessions never echoed.
func (d *dialConn) echoAll(ids []uint32) uint64 {
	pending := make(map[uint32]bool, len(ids))
	for _, id := range ids {
		pending[id] = true
	}
	// Send in bounded flights: a cold session costs a chain build on first
	// contact, and an unbounded burst (every client firing its whole id set
	// at once) can outrun the engine's open rate under the race detector —
	// echo windows then expire and the resends amplify the very backlog that
	// caused them. A small per-client flight keeps the aggregate open rate
	// sane while the 50 clients still overlap heavily.
	const flight = 8
	for round := 0; round < 10 && len(pending) > 0; round++ {
		ids := make([]uint32, 0, len(pending))
		for id := range pending {
			ids = append(ids, id)
		}
		for i := 0; i < len(ids); i += flight {
			end := min(i+flight, len(ids))
			sent := 0
			for _, id := range ids[i:end] {
				if !pending[id] {
					continue // echoed while draining an earlier flight
				}
				dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{
					Seq: uint64(round), StreamID: id, Kind: packet.KindData,
					Payload: []byte{byte(id), byte(id >> 8)},
				})
				if err != nil {
					d.t.Errorf("session %d: marshal: %v", id, err)
					return uint64(len(pending))
				}
				if _, err := d.conn.Write(dgram); err != nil {
					d.t.Errorf("session %d: write: %v", id, err)
					return uint64(len(pending))
				}
				sent++
			}
			window := time.Now().Add(time.Second)
			for got := 0; got < sent && time.Now().Before(window); {
				d.conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
				n, err := d.conn.Read(d.buf)
				if err != nil {
					break // window quiet: the next round resends stragglers
				}
				id, _, err := packet.SplitSessionID(d.buf[:n])
				if err != nil {
					continue
				}
				if pending[id] {
					delete(pending, id)
					got++
				}
			}
		}
	}
	return uint64(len(pending))
}

// probe sends one datagram for id and waits for its echo (matching seq),
// skipping stray late echoes of other sessions. Retries guard against raw
// UDP loss only; the engine side must not lose the wake-up datagram.
func (d *dialConn) probe(id uint32, seq uint64) bool {
	dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{
		Seq: seq, StreamID: id, Kind: packet.KindData, Payload: []byte("wake"),
	})
	if err != nil {
		d.t.Errorf("session %d: marshal: %v", id, err)
		return false
	}
	for attempt := 0; attempt < 5; attempt++ {
		if _, err := d.conn.Write(dgram); err != nil {
			d.t.Errorf("session %d: write: %v", id, err)
			return false
		}
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			d.conn.SetReadDeadline(deadline)
			n, err := d.conn.Read(d.buf)
			if err != nil {
				break
			}
			gotID, frame, err := packet.SplitSessionID(d.buf[:n])
			if err != nil || gotID != id {
				continue
			}
			if p, _, err := packet.Unmarshal(frame); err == nil && p.Seq == seq {
				return true
			}
		}
	}
	return false
}

// waitGoroutines polls until the process goroutine count satisfies ok or the
// deadline passes, returning the last observed count. Chain goroutines exit
// asynchronously after Stop returns, so park-related goroutine assertions
// need a settle window.
func waitGoroutines(t *testing.T, d time.Duration, ok func(int) bool) int {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		n := runtime.NumGoroutine()
		if ok(n) || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaintInterval pins the maintenance ticker derivation: a quarter of the
// tightest configured window, floored at a millisecond, zero when neither
// timer-driven concern is on.
func TestMaintInterval(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want time.Duration
	}{
		{"none", Config{}, 0},
		{"idle only", Config{IdleTTL: time.Hour}, 15 * time.Minute},
		{"staleness only", Config{Adapt: true, ReportStaleness: 100 * time.Millisecond}, 25 * time.Millisecond},
		{"both, idle tighter", Config{Adapt: true, ReportStaleness: time.Hour, IdleTTL: time.Second}, 250 * time.Millisecond},
		{"both, staleness tighter", Config{Adapt: true, ReportStaleness: 200 * time.Millisecond, IdleTTL: time.Hour}, 50 * time.Millisecond},
		{"floored", Config{IdleTTL: 2 * time.Millisecond}, time.Millisecond},
		{"staleness without adapt", Config{ReportStaleness: 100 * time.Millisecond}, 0},
	}
	for _, tc := range cases {
		e, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		if got := e.maintInterval(); got != tc.want {
			t.Errorf("%s: maintInterval = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSessionParkUnparkTTL drives the full idle lifecycle with a fake clock:
// two maintenance ticks (one to observe the session idle, one a TTL later to
// park it) release the chain, and the first datagram afterwards rebuilds it
// and flows through it. Counters, plan and identity must survive the round
// trip. The timed plan has frames held by its delay stage when it parks.
func TestSessionParkUnparkTTL(t *testing.T) {
	t.Run("inline", func(t *testing.T) { testSessionParkUnparkTTL(t, "counting") })
	t.Run("timed", func(t *testing.T) { testSessionParkUnparkTTL(t, "counting,delay=1ms") })
}

func testSessionParkUnparkTTL(t *testing.T, chain string) {
	const id = 42
	ttl := time.Hour // harvesting driven by explicit maintain() calls, not the ticker
	e := newTestEngine(t, Config{IdleTTL: ttl, Chain: chain})
	c := dialEngine(t, e)

	sendPacket(t, c, id, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("pre-park")})
	if got, p := readPacket(t, c, 2*time.Second); got != id || string(p.Payload) != "pre-park" {
		t.Fatalf("echo before park: session %d payload %q", got, p.Payload)
	}
	s := e.Session(id)
	if s == nil || s.Parked() {
		t.Fatalf("session %d missing or unexpectedly parked", id)
	}
	g0 := runtime.NumGoroutine()

	// First tick observes the activity (one packet since open) and only marks.
	now := time.Now()
	e.maintain(now)
	if s.Parked() {
		t.Fatal("first maintenance tick parked an active session")
	}
	// Second tick, a full TTL later with no traffic in between, parks.
	e.maintain(now.Add(ttl))
	if !s.Parked() {
		t.Fatal("session not parked after a full idle TTL")
	}
	if s.Live() != nil {
		t.Fatal("parked session still exposes a chain")
	}

	st := e.Stats()
	if st.ParkedSessions != 1 || st.LiveSessions != 0 || st.ActiveSessions != 1 {
		t.Fatalf("engine gauges after park = %d parked / %d live / %d active, want 1/0/1",
			st.ParkedSessions, st.LiveSessions, st.ActiveSessions)
	}
	if st.Parks != 1 || st.Unparks != 0 {
		t.Fatalf("park counters = %d parks / %d unparks, want 1/0", st.Parks, st.Unparks)
	}
	if n := e.SessionCount(); n != 1 {
		t.Fatalf("SessionCount after park = %d, want 1 (registration survives)", n)
	}
	ss := slices.Collect(e.SessionStats)
	if len(ss) != 1 || !ss[0].Parked {
		t.Fatalf("SessionStats after park = %+v, want one parked entry", ss)
	}
	if ss[0].Chain != chain {
		t.Fatalf("parked session chain column = %q, want retained plan %q", ss[0].Chain, chain)
	}
	// A live session owns no goroutines, so parking one frees none either.
	if n := waitGoroutines(t, 5*time.Second, func(n int) bool { return n <= g0 }); n > g0 {
		t.Fatalf("goroutines after park = %d, want <= %d", n, g0)
	}

	// First datagram after the idle period unparks transparently: it must not
	// be lost, and the rebuilt chain must be the retained plan.
	sendPacket(t, c, id, &packet.Packet{Seq: 2, Kind: packet.KindData, Payload: []byte("wake")})
	if got, p := readPacket(t, c, 2*time.Second); got != id || string(p.Payload) != "wake" {
		t.Fatalf("unpark echo: session %d payload %q", got, p.Payload)
	}
	if s.Parked() {
		t.Fatal("session still reports parked after traffic")
	}
	if got := s.Live().String(); got != chain {
		t.Fatalf("rebuilt plan = %q, want %q", got, chain)
	}
	if got := s.Counters().Packets.Load(); got != 2 {
		t.Fatalf("Packets across park/unpark = %d, want 2 (counters survive)", got)
	}
	st = e.Stats()
	if st.Unparks != 1 || st.ParkedSessions != 0 || st.LiveSessions != 1 {
		t.Fatalf("engine gauges after unpark = %+v, want 1 unpark, 0 parked, 1 live", st)
	}

	// The woken session carries a burst with zero loss.
	for i := 0; i < 20; i++ {
		sendPacket(t, c, id, &packet.Packet{Seq: uint64(10 + i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	for i := 0; i < 20; i++ {
		readPacket(t, c, 2*time.Second)
	}
	if drops := s.Counters().Drops.Load(); drops != 0 {
		t.Fatalf("drops across park/unpark burst = %d, want 0", drops)
	}
}

// TestParkRetainsRecomposedPlan parks a session whose chain was recomposed
// after open: the *current* plan must be what survives parking and what the
// rebuild uses — and a control operation on a parked session must unpark it.
func TestParkRetainsRecomposedPlan(t *testing.T) {
	const id = 7
	e := newTestEngine(t, Config{IdleTTL: time.Hour})
	c := dialEngine(t, e)

	sendPacket(t, c, id, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("open")})
	readPacket(t, c, 2*time.Second)
	if got, err := e.EditSession(id, "", compose.Replace("counting")); err != nil || got != "counting" {
		t.Fatalf("EditSession(Replace) = %q, %v", got, err)
	}
	if err := e.ParkSession(id); err != nil {
		t.Fatalf("ParkSession: %v", err)
	}
	s := e.Session(id)
	if !s.Parked() {
		t.Fatal("session not parked")
	}
	if got := slices.Collect(e.SessionStats)[0].Chain; got != "counting" {
		t.Fatalf("parked chain column = %q, want recomposed plan %q", got, "counting")
	}
	// Parking an already-parked session is a no-op, not a double-count.
	if err := e.ParkSession(id); err != nil {
		t.Fatalf("ParkSession (again): %v", err)
	}
	if st := e.Stats(); st.Parks != 1 || st.ParkedSessions != 1 {
		t.Fatalf("double park counted: %d parks, %d parked", st.Parks, st.ParkedSessions)
	}

	// Traffic rebuilds the recomposed plan, not the engine default.
	sendPacket(t, c, id, &packet.Packet{Seq: 2, Kind: packet.KindData, Payload: []byte("wake")})
	readPacket(t, c, 2*time.Second)
	if got := s.Live().String(); got != "counting" {
		t.Fatalf("rebuilt plan = %q, want %q", got, "counting")
	}

	// A control operation is the other unpark path.
	if err := e.ParkSession(id); err != nil {
		t.Fatalf("ParkSession: %v", err)
	}
	if got, err := e.EditSession(id, "", compose.Replace("")); err != nil || got != "" {
		t.Fatalf("EditSession(Replace) on parked session = %q, %v", got, err)
	}
	if s.Parked() {
		t.Fatal("control operation left the session parked")
	}
	if st := e.Stats(); st.Unparks != 2 {
		t.Fatalf("Unparks = %d, want 2", st.Unparks)
	}
}

// TestParkVsInboundDatagramRace hammers park against live traffic: a goroutine
// parks the session as fast as it can while the client runs a strict
// ping-pong. A datagram that finds its incarnation closed by park must wait
// the park out and go through the rebuilt one — zero loss, every echo
// arrives, every packet counted exactly once.
func TestParkVsInboundDatagramRace(t *testing.T) {
	const id = 9
	e := newTestEngine(t, Config{IdleTTL: time.Hour})
	c := dialEngine(t, e)

	sendPacket(t, c, id, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: []byte("open")})
	readPacket(t, c, 2*time.Second)
	s := e.Session(id)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.park()
			runtime.Gosched()
		}
	}()

	const rounds = 200
	for i := 1; i <= rounds; i++ {
		sendPacket(t, c, id, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
		got, p := readPacket(t, c, 5*time.Second)
		if got != id || p.Seq != uint64(i) {
			t.Fatalf("round %d: echo session %d seq %d", i, got, p.Seq)
		}
	}
	close(stop)
	wg.Wait()

	if drops := s.Counters().Drops.Load(); drops != 0 {
		t.Fatalf("drops under park/deliver race = %d, want 0", drops)
	}
	if got := s.Counters().Packets.Load(); got != rounds+1 {
		t.Fatalf("Packets = %d, want %d (each datagram counted exactly once)", got, rounds+1)
	}
	st := e.Stats()
	if st.Parks == 0 || st.Unparks == 0 {
		t.Fatalf("race never exercised parking: %d parks, %d unparks", st.Parks, st.Unparks)
	}
}

// TestEngineRemovalOwnerClosesOnce races every path that takes a session out
// of the table — a chain failure reported by four readers at once,
// CloseSession, the admission harvester and Engine.Close — on one session
// whose trunk counts its flushes. Whoever removes the session closes it,
// exactly once: the trunk flushes once, at most one chain error is counted,
// the parked gauge never goes negative, and the table and the admission
// gauge end empty.
func TestEngineRemovalOwnerClosesOnce(t *testing.T) {
	peer := netip.MustParseAddrPort("127.0.0.1:9")
	for round := 0; round < 20; round++ {
		e, err := New(Config{ListenAddr: "127.0.0.1:0", MaxSessions: 1, Admission: AdmitHarvest})
		if err != nil {
			t.Fatal(err)
		}
		var flushes atomic.Int64
		withStage(t, e, compose.Definition{
			Kind: "flushes",
			Build: func(compose.Env, string) (filter.Filter, error) {
				return filter.NewFrame("flushes", func(b *packet.Buf, emit func(*packet.Buf)) error {
					emit(b)
					return nil
				}, func(func(*packet.Buf)) error {
					flushes.Add(1)
					return nil
				}), nil
			},
		}, "flushes")
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		s, err := e.openSession(1, peer)
		if err != nil {
			t.Fatal(err)
		}
		cs := s.cs.Load()

		start := make(chan struct{})
		var wg sync.WaitGroup
		race := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f()
			}()
		}
		for r := 0; r < 4; r++ {
			race(func() { e.chainFailed(s, cs, errors.New("boom")) })
		}
		race(func() { e.CloseSession(1) })
		race(func() { e.harvestOldestIdle(2) })
		race(func() { e.Close() })
		close(start)
		wg.Wait()
		e.Close()

		st := e.Stats()
		if got := flushes.Load(); got != 1 {
			t.Fatalf("round %d: the trunk flushed %d times, want 1", round, got)
		}
		if st.ChainErrors > 1 {
			t.Fatalf("round %d: ChainErrors = %d, want at most 1", round, st.ChainErrors)
		}
		if st.ParkedSessions != 0 {
			t.Fatalf("round %d: ParkedSessions = %d after every close, want 0", round, st.ParkedSessions)
		}
		if n, active := e.SessionCount(), e.active.Load(); n != 0 || active != 0 {
			t.Fatalf("round %d: SessionCount = %d, active = %d, want 0 and 0", round, n, active)
		}
	}
}

// TestParkVsRecomposeRace races parking against control-plane recomposition
// under traffic. Individual recompose calls may lose to a concurrent park
// (their chain stops under them — an error, never a panic or deadlock), but
// the session must stay functional and composable afterwards.
func TestParkVsRecomposeRace(t *testing.T) {
	const id = 11
	e := newTestEngine(t, Config{IdleTTL: time.Hour})
	c := dialEngine(t, e)

	sendPacket(t, c, id, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: []byte("open")})
	readPacket(t, c, 2*time.Second)
	s := e.Session(id)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var recomposed atomic.Uint64
	wg.Add(3)
	go func() { // parker
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.park()
			runtime.Gosched()
		}
	}()
	go func() { // recomposer: alternates specs; errors mean it lost a race, which is fine
		defer wg.Done()
		specs := []string{"counting", ""}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.EditSession(id, "", compose.Replace(specs[i%len(specs)])); err == nil {
				recomposed.Add(1)
			}
			// Yield like the parker does, so the recomposer cannot starve
			// the timed traffic loop above on a single P.
			runtime.Gosched()
		}
	}()
	go func() { // echo drain
		defer wg.Done()
		buf := make([]byte, packet.MaxDatagram)
		for {
			c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			if _, err := c.Read(buf); err != nil {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
	}()

	deadline := time.Now().Add(250 * time.Millisecond)
	for seq := uint64(1); time.Now().Before(deadline); seq++ {
		sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte("race")})
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	if recomposed.Load() == 0 {
		t.Fatal("no recompose ever succeeded during the race")
	}
	// The session must still compose and still relay.
	if _, err := e.EditSession(id, "", compose.Replace("counting")); err != nil {
		t.Fatalf("EditSession(Replace) after race: %v", err)
	}
	for attempt := 0; ; attempt++ {
		if attempt >= 10 {
			t.Fatal("stream dead after park/recompose race")
		}
		sendPacket(t, c, id, &packet.Packet{Seq: 999999, Kind: packet.KindData, Payload: []byte("post-race")})
		buf := make([]byte, packet.MaxDatagram)
		c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := c.Read(buf)
		if err != nil {
			continue
		}
		if _, frame, err := packet.SplitSessionID(buf[:n]); err == nil {
			if got, _, err := packet.Unmarshal(frame); err == nil && string(got.Payload) == "post-race" {
				break
			}
		}
	}
}

// TestAdmissionHarvestEvictsOldestIdle fills a tiny engine, parks one session,
// and opens one more: under AdmitHarvest the parked session is the preferred
// victim and the newcomer is admitted in its place.
func TestAdmissionHarvestEvictsOldestIdle(t *testing.T) {
	e := newTestEngine(t, Config{MaxSessions: 4, Shards: 1, Admission: AdmitHarvest, IdleTTL: time.Hour})
	c := dialEngine(t, e)

	for id := uint32(1); id <= 4; id++ {
		sendPacket(t, c, id, &packet.Packet{Seq: uint64(id), Kind: packet.KindData, Payload: []byte{byte(id)}})
		readPacket(t, c, 2*time.Second)
	}
	if err := e.ParkSession(2); err != nil {
		t.Fatalf("ParkSession(2): %v", err)
	}

	sendPacket(t, c, 5, &packet.Packet{Seq: 5, Kind: packet.KindData, Payload: []byte{5}})
	if got, _ := readPacket(t, c, 2*time.Second); got != 5 {
		t.Fatalf("echo for harvested-in session = %d, want 5", got)
	}
	if e.Session(2) != nil {
		t.Fatal("parked session 2 survived harvest")
	}
	if e.Session(5) == nil {
		t.Fatal("session 5 not admitted")
	}
	st := e.Stats()
	if st.Harvested != 1 {
		t.Fatalf("Harvested = %d, want 1", st.Harvested)
	}
	if st.ActiveSessions != 4 || e.SessionCount() != 4 {
		t.Fatalf("sessions after harvest = %d (stats %d), want 4", e.SessionCount(), st.ActiveSessions)
	}
	if st.AdmissionDrops != 0 {
		t.Fatalf("AdmissionDrops = %d, want 0 under successful harvest", st.AdmissionDrops)
	}
}

// TestAdmissionRejectCountsDrops pins the default policy: at MaxSessions a
// new ID is refused, counted in the per-shard admission-drop gauge, and the
// table is untouched.
func TestAdmissionRejectCountsDrops(t *testing.T) {
	e := newTestEngine(t, Config{MaxSessions: 2})
	c := dialEngine(t, e)

	for id := uint32(1); id <= 2; id++ {
		sendPacket(t, c, id, &packet.Packet{Seq: uint64(id), Kind: packet.KindData, Payload: []byte{byte(id)}})
		readPacket(t, c, 2*time.Second)
	}
	sendPacket(t, c, 3, &packet.Packet{Seq: 3, Kind: packet.KindData, Payload: []byte{3}})
	buf := make([]byte, packet.MaxDatagram)
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("refused session echoed %d bytes", n)
	}
	st := e.Stats()
	if st.AdmissionDrops == 0 {
		t.Fatalf("AdmissionDrops = 0, want > 0")
	}
	if st.Rejected == 0 {
		t.Fatalf("Rejected = 0, want > 0")
	}
	if n := e.SessionCount(); n != 2 {
		t.Fatalf("SessionCount = %d, want 2", n)
	}
}

// TestEngineChurnSoak is the million-session scale proof at test size: it
// opens sessions in waves (each wave echo-verified, then parked through
// fake-clock maintenance ticks), until a large table is fully parked — at
// which point the goroutine count must be back near the engine baseline,
// O(shards) not O(sessions). It then wakes a sample of sessions with one
// datagram each and requires every wake-up echo to arrive: unpark loses
// nothing. Scaled down under the race detector, whose goroutine budget (8128)
// the full soak's live waves would exhaust.
func TestEngineChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short mode")
	}
	sessions, wave := 100_000, 4_000
	if race.Enabled {
		sessions, wave = 8_000, 2_000
	}
	const clients = 50
	ttl := time.Hour
	e := newTestEngine(t, Config{
		MaxSessions: sessions,
		IdleTTL:     ttl,
	})
	addr := e.LocalAddr()

	conns := make([]*dialConn, clients)
	for i := range conns {
		conns[i] = newDialConn(t, addr)
	}
	g0 := runtime.NumGoroutine()

	now := time.Now() // synthetic maintenance clock, advanced a TTL per tick
	parkAll := func(target int) {
		// Progress-aware rather than a fixed tick budget: straggler duplicate
		// datagrams (echo resends still queued in the engine's socket buffer)
		// re-mark sessions as active for as long as the backlog drains, which
		// under the race detector can take a while. Keep ticking as long as
		// the parked count is still growing; fail only after a long stall.
		last, stall := -1, 0
		for stall < 50 {
			e.maintain(now) // observe activity (or park the already-observed)
			now = now.Add(ttl)
			p := e.Stats().ParkedSessions
			if p >= target {
				return
			}
			if p > last {
				last, stall = p, 0
			} else {
				stall++
			}
			time.Sleep(5 * time.Millisecond)
		}
		for _, s := range e.table.snapshot() {
			if s.cs.Load() == nil {
				continue
			}
			t.Logf("stuck live: session %d sum=%d idleSeen=%d idleSince=%d parked=%v packets=%d drops=%d ctl=%d",
				s.id, s.activitySum(), s.idleSeen.Load(), s.idleSince.Load(), s.Parked(),
				s.counters.Packets.Load(), s.counters.Drops.Load(), s.ctlActivity.Load())
		}
		t.Fatalf("only %d of %d sessions parked", e.Stats().ParkedSessions, target)
	}

	for waveStart := 0; waveStart < sessions; waveStart += wave {
		var wg sync.WaitGroup
		var failed atomic.Uint64
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				var ids []uint32
				for id := waveStart + ci + 1; id <= waveStart+wave; id += clients {
					ids = append(ids, uint32(id))
				}
				failed.Add(conns[ci].echoAll(ids))
			}(ci)
		}
		wg.Wait()
		if n := failed.Load(); n > 0 {
			st := e.Stats()
			t.Logf("engine: count=%d active=%d live=%d parked=%d rejected=%d adrops=%d chainErrs=%d malformed=%d drops(dg)=%d wdrops=%d",
				e.SessionCount(), st.ActiveSessions, st.LiveSessions, st.ParkedSessions,
				st.Rejected, st.AdmissionDrops, st.ChainErrors, st.Malformed, st.Datagrams, st.WriteDrops)
			t.Fatalf("wave at %d: %d sessions never echoed", waveStart, n)
		}
		parkAll(waveStart + wave)
	}

	if n := e.SessionCount(); n != sessions {
		t.Fatalf("SessionCount = %d, want %d", n, sessions)
	}
	st := e.Stats()
	if st.ParkedSessions != sessions || st.LiveSessions != 0 {
		t.Fatalf("gauges = %d parked / %d live, want %d/0", st.ParkedSessions, st.LiveSessions, sessions)
	}
	if st.Parks < uint64(sessions) {
		t.Fatalf("Parks = %d, want >= %d", st.Parks, sessions)
	}
	// The heart of the tentpole: a fully parked table costs no goroutines.
	// Baseline is shards*2 + maintenance + runtime; allow slack for test
	// machinery but nothing anywhere near O(sessions).
	limit := g0 + 64
	if n := waitGoroutines(t, 10*time.Second, func(n int) bool { return n <= limit }); n > limit {
		t.Fatalf("goroutines with %d parked sessions = %d, want <= %d (baseline %d)", sessions, n, limit, g0)
	}

	// Wake a spread-out sample with a single datagram each: the first packet
	// after the idle period must rebuild the chain and come back — no warmup,
	// no loss.
	probes := 0
	preUnparks := e.Stats().Unparks
	for id := uint32(1); id <= uint32(sessions); id += uint32(sessions / 64) {
		ci := int(id-1) % clients
		if !conns[ci].probe(id, 7_000_000+uint64(id)) {
			t.Errorf("session %d: no echo after unpark probe", id)
		}
		probes++
	}
	if t.Failed() {
		t.FailNow()
	}
	st = e.Stats()
	if got := st.Unparks - preUnparks; got < uint64(probes) {
		t.Fatalf("Unparks grew by %d, want >= %d probes", got, probes)
	}
	if st.ActiveSessions != sessions {
		t.Fatalf("ActiveSessions after probes = %d, want %d", st.ActiveSessions, sessions)
	}
	if st.ParkedSessions > sessions-probes {
		t.Fatalf("ParkedSessions = %d after %d probes, want <= %d", st.ParkedSessions, probes, sessions-probes)
	}
}

// maintainTick opens live sessions and parked more (each opened, then
// parked) on an idle-harvesting engine, through openSession rather than
// round trips, and returns one maintenance tick that changes nothing: its
// clock stays inside every live session's TTL. One tick runs before it
// returns, so the tick's reused scratch has its steady size.
func maintainTick(tb testing.TB, live, parked int) func() {
	e, err := New(Config{ListenAddr: "127.0.0.1:0", IdleTTL: time.Hour, MaxSessions: live + parked})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	peer := netip.MustParseAddrPort("127.0.0.1:9")
	for id := uint32(1); id <= uint32(live+parked); id++ {
		s, err := e.openSession(id, peer)
		if err != nil {
			tb.Fatal(err)
		}
		if id > uint32(live) && !s.park() {
			tb.Fatalf("session %d did not park", id)
		}
	}
	if st := e.Stats(); st.LiveSessions != live || st.ParkedSessions != parked {
		tb.Fatalf("%d live and %d parked sessions, want %d and %d", st.LiveSessions, st.ParkedSessions, live, parked)
	}
	now := time.Now()
	e.maintain(now)
	return func() { e.maintain(now) }
}

// BenchmarkMaintainTick times one maintenance tick over 512 live sessions
// with 0, 16,384 and 262,144 parked ones beside them. The tick walks only the
// live lists, so the parked sessions must not move its cost.
func BenchmarkMaintainTick(b *testing.B) {
	for _, parked := range []int{0, 16384, 262144} {
		op := maintainTick(b, 512, parked)
		b.Run(fmt.Sprintf("parked=%d", parked), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestMaintainTickAllocs holds BenchmarkMaintainTick's tick allocation-free
// with 10,000 parked sessions beside 64 live ones: the tick reuses its
// scratch and never copies a parked session.
func TestMaintainTickAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	op := maintainTick(t, 64, 10000)
	if n := testing.AllocsPerRun(20, op); n != 0 {
		t.Fatalf("%v allocs per maintenance tick, want 0", n)
	}
}

// lifecyclePeer is the opening sender of the sessions
// TestSessionIncarnationAllocs and BenchmarkSessionIncarnation open.
var lifecyclePeer = netip.MustParseAddrPort("10.9.0.1:4000")

// TestSessionIncarnationAllocs bounds what a stage-less session's lifecycle
// allocates, with no socket or datagram in the way: an open is the Session
// and its chain incarnation (plus the table's amortised map growth), an
// unpark is the incarnation alone, and a park allocates nothing. Each
// AllocsPerRun call acts on a batch of fresh sessions, so its warm-up run
// takes the first batch and the measured run the second.
func TestSessionIncarnationAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const batch = 1000
	e, _ := newSimEngine(t, Config{})
	perOp := func(op func(id uint32)) float64 {
		next := uint32(0)
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < batch; i++ {
				next++
				op(next)
			}
		}) / batch
	}
	for _, tc := range []struct {
		name string
		max  float64
		op   func(id uint32)
	}{
		{"open", 2, func(id uint32) {
			if _, err := e.openSession(id, lifecyclePeer); err != nil {
				t.Fatal(err)
			}
		}},
		{"park", 0, func(id uint32) {
			if !e.Session(id).park() {
				t.Fatalf("session %d did not park", id)
			}
		}},
		{"unpark", 1, func(id uint32) {
			if _, err := e.Session(id).unpark(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		n := perOp(tc.op)
		t.Logf("%s: %.3f allocs per session, bound %v", tc.name, n, tc.max)
		if math.Round(n) > tc.max {
			t.Fatalf("%s: %.3f allocs per session exceeds the bound of %v", tc.name, n, tc.max)
		}
	}
}

// BenchmarkSessionIncarnation times the steps TestSessionIncarnationAllocs
// bounds: a stage-less session's open, and one park plus unpark of it. Open
// closes its sessions every 1024 opens, off the clock, so the table stays
// small.
func BenchmarkSessionIncarnation(b *testing.B) {
	const window = 1024
	b.Run("open", func(b *testing.B) {
		e, _ := newSimEngine(b, Config{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := uint32(i%window) + 1
			if id == 1 && i > 0 {
				b.StopTimer()
				for j := uint32(1); j <= window; j++ {
					e.CloseSession(j)
				}
				b.StartTimer()
			}
			if _, err := e.openSession(id, lifecyclePeer); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("park+unpark", func(b *testing.B) {
		e, _ := newSimEngine(b, Config{})
		s, err := e.openSession(1, lifecyclePeer)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.park()
			if _, err := s.unpark(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
