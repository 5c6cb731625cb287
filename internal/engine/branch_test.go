package engine

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// listenReceiver returns a loopback UDP socket standing in for a downstream
// station.
func listenReceiver(t *testing.T) *net.UDPConn {
	t.Helper()
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close() })
	return rx
}

// readFrame reads one engine datagram from a receiver socket and decodes it.
func readFrame(t *testing.T, rx *net.UDPConn, timeout time.Duration) (uint32, *packet.Packet) {
	t.Helper()
	buf := make([]byte, packet.MaxDatagram)
	rx.SetReadDeadline(time.Now().Add(timeout))
	n, err := rx.Read(buf)
	if err != nil {
		t.Fatalf("receiver read: %v", err)
	}
	id, frame, err := packet.SplitSessionID(buf[:n])
	if err != nil {
		t.Fatalf("SplitSessionID: %v", err)
	}
	p, _, err := packet.Unmarshal(frame)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return id, p
}

// reportFrom sends one feedback datagram for session id from a receiver
// socket to the engine.
func reportFrom(t *testing.T, rx *net.UDPConn, e *Engine, id uint32, rep packet.Report) {
	t.Helper()
	dgram, err := packet.AppendReportDatagram(nil, id, 0, 0, rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rx.WriteToUDP(dgram, e.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
}

// receiverStat polls a session's per-receiver breakdown until cond holds for
// the named receiver.
func receiverStat(t *testing.T, e *Engine, id uint32, receiver, what string, cond func(metrics.ReceiverStats) bool) metrics.ReceiverStats {
	t.Helper()
	return pollReceiver(t, e, id, receiver, what, 2*time.Second, nil, cond)
}

// reportUntil re-sends rep from rx on every poll until cond holds for the
// named receiver, so a report lost to a full socket buffer is sent again
// instead of waited for. A decision depends on the report alone, so repeats
// change nothing once one has landed.
func reportUntil(t *testing.T, rx *net.UDPConn, e *Engine, id uint32, rep packet.Report, receiver, what string, cond func(metrics.ReceiverStats) bool) {
	t.Helper()
	pollReceiver(t, e, id, receiver, what, 10*time.Second, func() { reportFrom(t, rx, e, id, rep) }, cond)
}

// pollReceiver calls each (when non-nil) and then reads the named receiver's
// stats, every few milliseconds for up to window, until cond holds.
func pollReceiver(t *testing.T, e *Engine, id uint32, receiver, what string, window time.Duration, each func(), cond func(metrics.ReceiverStats) bool) metrics.ReceiverStats {
	t.Helper()
	deadline := time.Now().Add(window)
	var last metrics.ReceiverStats
	for time.Now().Before(deadline) {
		if each != nil {
			each()
		}
		if s := e.Session(id); s != nil {
			for _, rs := range s.Stats().Receivers {
				if rs.Receiver == receiver {
					last = rs
					if cond(rs) {
						return rs
					}
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: receiver %s never converged; last %+v", what, receiver, last)
	return metrics.ReceiverStats{}
}

// TestEngineHeterogeneousFanoutBranches is the delivery tree end to end: one
// fan-out session serves two receivers on very different channels, and each
// branch converges to its own protection level — the lossy station's branch
// carries a protective (n,k) within one report window while the clean
// station's branch carries no FEC parity at all. This is the paper's
// heterogeneity claim, which the old worst-case fan-out could not provide.
func TestEngineHeterogeneousFanoutBranches(t *testing.T) {
	rxClean := listenReceiver(t)
	rxLossy := listenReceiver(t)
	e := newTestEngine(t, Config{
		Adapt:  true,
		Fanout: []string{rxClean.LocalAddr().String(), rxLossy.LocalAddr().String()},
	})
	c := dialEngine(t, e)
	const id = 9

	// Prime: one data packet must reach both receivers through their branches.
	sendPacket(t, c, id, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: []byte("prime")})
	for _, rx := range []*net.UDPConn{rxClean, rxLossy} {
		gotID, p := readFrame(t, rx, 2*time.Second)
		if gotID != id || p.Kind != packet.KindData || string(p.Payload) != "prime" {
			t.Fatalf("prime frame: session %d, packet %v", gotID, p)
		}
	}

	// One observation window: the lossy station reports 10% loss, the clean
	// one a clean link. Only the lossy branch may upgrade.
	cleanKey := rxClean.LocalAddr().(*net.UDPAddr).AddrPort().String()
	lossyKey := rxLossy.LocalAddr().(*net.UDPAddr).AddrPort().String()
	reportFrom(t, rxClean, e, id, packet.Report{HighestSeq: 0, Received: 100, Lost: 0, Window: 100})
	reportFrom(t, rxLossy, e, id, packet.Report{HighestSeq: 0, Received: 90, Lost: 10, Window: 100})
	lossy := receiverStat(t, e, id, lossyKey, "lossy upgrade", func(rs metrics.ReceiverStats) bool { return rs.Active })
	if lossy.N != 8 || lossy.K != 4 {
		t.Fatalf("lossy branch code = %d/%d, want 8/4", lossy.N, lossy.K)
	}
	clean := receiverStat(t, e, id, cleanKey, "clean reported", func(rs metrics.ReceiverStats) bool { return rs.Reports == 1 })
	if clean.Active || clean.N != 1 || clean.K != 1 {
		t.Fatalf("clean branch state = %+v, want inactive 1/1", clean)
	}

	// A full FEC group of data: the lossy receiver gets data plus parity,
	// the clean receiver exactly the data and nothing else.
	for i := 1; i <= 4; i++ {
		sendPacket(t, c, id, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	var data, parity int
	for i := 0; i < 8; i++ {
		_, p := readFrame(t, rxLossy, 2*time.Second)
		switch p.Kind {
		case packet.KindData:
			data++
		case packet.KindParity:
			parity++
		}
	}
	if data != 4 || parity != 4 {
		t.Fatalf("lossy receiver got %d data / %d parity, want 4/4 under (8,4)", data, parity)
	}
	for i := 0; i < 4; i++ {
		_, p := readFrame(t, rxClean, 2*time.Second)
		if p.Kind != packet.KindData {
			t.Fatalf("clean receiver got kind %v, want pure data", p.Kind)
		}
	}
	rxClean.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := rxClean.Read(make([]byte, packet.MaxDatagram)); err == nil {
		t.Fatal("clean receiver got parity (or extra data) from the lossy branch's code")
	}

	// The aggregate view reports the group's weakest receiver; the breakdown
	// carries both branches with their own counters.
	st := e.Session(id).Stats()
	if st.Adapt == nil || !st.Adapt.Active || st.Adapt.N != 8 || st.Adapt.Receivers != 2 {
		t.Fatalf("aggregate adapt = %+v", st.Adapt)
	}
	if len(st.Receivers) != 2 {
		t.Fatalf("Receivers breakdown has %d entries, want 2", len(st.Receivers))
	}
	lossy = receiverStat(t, e, id, lossyKey, "counters", func(rs metrics.ReceiverStats) bool { return rs.OutPackets >= 9 })
	if lossy.OutBytes == 0 {
		t.Fatalf("lossy branch counters = %+v", lossy)
	}

	// The lossy station recovering releases only its own branch (the clean
	// one never had an encoder to release).
	reportFrom(t, rxLossy, e, id, packet.Report{HighestSeq: 4, Received: 100, Lost: 0, Window: 100})
	receiverStat(t, e, id, lossyKey, "recovery", func(rs metrics.ReceiverStats) bool { return !rs.Active && rs.N == 1 })
}

// TestEngineBranchSpecShapesPerReceiverTails checks that a static Branch spec
// (no adaptation) builds every receiver a tail of its own: a thinning stage
// halves each branch's data stream independently.
func TestEngineBranchSpecShapesPerReceiverTails(t *testing.T) {
	rx := listenReceiver(t)
	e := newTestEngine(t, Config{
		Shards: 1, // which packets thinning keeps depends on arrival order; one reader preserves it
		Fanout: []string{rx.LocalAddr().String()},
		Branch: "thin=2",
	})
	c := dialEngine(t, e)

	for i := 0; i < 6; i++ {
		sendPacket(t, c, 4, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	// thin=2 keeps packets 0, 2, 4.
	for _, wantSeq := range []uint64{0, 2, 4} {
		_, p := readFrame(t, rx, 2*time.Second)
		if p.Seq != wantSeq {
			t.Fatalf("thinned branch delivered seq %d, want %d", p.Seq, wantSeq)
		}
	}
	rx.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := rx.Read(make([]byte, packet.MaxDatagram)); err == nil {
		t.Fatal("thinning forwarded more than 1 in 2 data packets")
	}
	st := e.Session(4).Stats()
	if len(st.Receivers) != 1 || len(st.Receivers[0].Stages) != 1 {
		t.Fatalf("receiver stats = %+v, want one branch with one tail stage", st.Receivers)
	}
	if st.Adapt != nil {
		t.Fatalf("static branch spec grew adaptation state: %+v", st.Adapt)
	}
}

// TestEngineBranchTimedTailDelivers: a documented branch spec with a timed
// stage (-branch 'fec-adapt,ratelimit=64000') builds and delivers, the
// ratelimit stage running inline in the cohort's tail.
func TestEngineBranchTimedTailDelivers(t *testing.T) {
	rx := listenReceiver(t)
	e := newTestEngine(t, Config{Shards: 1, Fanout: []string{rx.LocalAddr().String()}, Branch: "fec-adapt,ratelimit=64000"})
	c := dialEngine(t, e)
	for i := 0; i < 5; i++ {
		sendPacket(t, c, 12, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	for i := 0; i < 5; i++ {
		if _, p := readFrame(t, rx, 2*time.Second); p.Seq != uint64(i) {
			t.Fatalf("timed tail delivered seq %d, want %d", p.Seq, i)
		}
	}
	if st := e.Session(12).Stats(); len(st.Receivers) != 1 || len(st.Receivers[0].Stages) != 1 {
		t.Fatalf("receiver stats = %+v, want one branch running the ratelimit stage", st.Receivers)
	}
}

// TestEngineBranchFollowsRuntimeMembership checks that members joining and
// leaving at run time gain and lose delivery branches on the next packet.
func TestEngineBranchFollowsRuntimeMembership(t *testing.T) {
	rxA := listenReceiver(t)
	rxB := listenReceiver(t)
	e := newTestEngine(t, Config{Adapt: true, Fanout: []string{rxA.LocalAddr().String()}})
	c := dialEngine(t, e)

	sendPacket(t, c, 6, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("a")})
	readFrame(t, rxA, 2*time.Second)

	// B joins: the next packet must reach it through a fresh branch.
	if !e.FanoutGroup().Add(rxB.LocalAddr().(*net.UDPAddr).AddrPort()) {
		t.Fatal("Add reported existing member")
	}
	sendPacket(t, c, 6, &packet.Packet{Seq: 2, Kind: packet.KindData, Payload: []byte("b")})
	if _, p := readFrame(t, rxB, 2*time.Second); string(p.Payload) != "b" {
		t.Fatalf("joined receiver got %q", p.Payload)
	}
	readFrame(t, rxA, 2*time.Second)
	receiverStat(t, e, 6, rxB.LocalAddr().(*net.UDPAddr).AddrPort().String(), "join",
		func(rs metrics.ReceiverStats) bool { return rs.OutPackets == 1 })

	// A leaves: its branch is torn down on the next packet and the breakdown
	// shrinks to B alone.
	if !e.FanoutGroup().Remove(rxA.LocalAddr().(*net.UDPAddr).AddrPort()) {
		t.Fatal("Remove missed member A")
	}
	sendPacket(t, c, 6, &packet.Packet{Seq: 3, Kind: packet.KindData, Payload: []byte("c")})
	readFrame(t, rxB, 2*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := e.Session(6).Stats()
		if len(st.Receivers) == 1 && st.Receivers[0].Receiver == rxB.LocalAddr().(*net.UDPAddr).AddrPort().String() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("branch set never shrank: %+v", st.Receivers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rxA.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := rxA.Read(make([]byte, packet.MaxDatagram)); err == nil {
		t.Fatal("departed receiver still served")
	}
}

// TestEngineStaleReceiverDecays runs the staleness window end to end: a
// station that reported heavy loss and then crashed (without leaving the
// group) must stop pinning its branch once its report ages out, as long as
// any sibling still reports.
func TestEngineStaleReceiverDecays(t *testing.T) {
	rxLive := listenReceiver(t)
	rxDead := listenReceiver(t)
	e := newTestEngine(t, Config{
		Adapt:           true,
		Fanout:          []string{rxLive.LocalAddr().String(), rxDead.LocalAddr().String()},
		ReportStaleness: 50 * time.Millisecond,
	})
	c := dialEngine(t, e)
	const id = 11

	sendPacket(t, c, id, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: []byte("x")})
	readFrame(t, rxLive, 2*time.Second)
	readFrame(t, rxDead, 2*time.Second)

	deadKey := rxDead.LocalAddr().(*net.UDPAddr).AddrPort().String()
	reportFrom(t, rxDead, e, id, packet.Report{Received: 70, Lost: 30, Window: 100})
	receiverStat(t, e, id, deadKey, "dead station upgrade", func(rs metrics.ReceiverStats) bool { return rs.Active && rs.N == 12 })

	// The dead station goes silent; the live one keeps reporting. Its branch
	// must decay back to the clean-link path once the window passes.
	deadline := time.Now().Add(4 * time.Second)
	for {
		reportFrom(t, rxLive, e, id, packet.Report{Received: 100, Lost: 0, Window: 100})
		st := e.Session(id).Stats()
		var dead metrics.ReceiverStats
		for _, rs := range st.Receivers {
			if rs.Receiver == deadKey {
				dead = rs
			}
		}
		if !dead.Active && st.Adapt != nil && st.Adapt.Expired >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale receiver never decayed: %+v (adapt %+v)", dead, st.Adapt)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEnginePlainFanoutRunsOnTheTree: fan-out without adaptation or a Branch
// spec takes the one delivery path as well — every member shares the bypass
// cohort, receives every frame, and has its own exact receiver row.
func TestEnginePlainFanoutRunsOnTheTree(t *testing.T) {
	rxs := []*net.UDPConn{listenReceiver(t), listenReceiver(t)}
	e := newTestEngine(t, Config{Fanout: []string{rxs[0].LocalAddr().String(), rxs[1].LocalAddr().String()}})
	c := dialEngine(t, e)
	const frames = 3
	for seq := uint64(0); seq < frames; seq++ {
		sendPacket(t, c, 9, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte("plain")})
	}
	for _, rx := range rxs {
		for seq := uint64(0); seq < frames; seq++ {
			if id, p := readFrame(t, rx, 2*time.Second); id != 9 || p.Seq != seq {
				t.Fatalf("receiver %s got session %d seq %d, want 9/%d", rx.LocalAddr(), id, p.Seq, seq)
			}
		}
		receiverStat(t, e, 9, rx.LocalAddr().String(), "plain fan-out row", func(rs metrics.ReceiverStats) bool {
			return rs.OutPackets == frames && rs.Drops == 0
		})
	}
	st := e.Session(9).Stats()
	if len(st.Receivers) != len(rxs) || st.Cohorts != 1 || st.Adapt != nil {
		t.Fatalf("plain fan-out session: %d receiver rows, %d cohorts, adapt %+v; want 2, 1, none",
			len(st.Receivers), st.Cohorts, st.Adapt)
	}
	if hits := e.Stats().BypassHits; hits != frames {
		t.Fatalf("BypassHits = %d, want one per trunk frame (%d)", hits, frames)
	}
}

func TestEngineBranchConfigValidation(t *testing.T) {
	// Branch tails are fan-out machinery; Forward conflicts.
	if _, err := New(Config{Forward: "127.0.0.1:1", Branch: "thin=2"}); err == nil {
		t.Fatal("Forward+Branch accepted")
	}
	// A static encoder under per-receiver adaptation would double-encode.
	if _, err := New(Config{Fanout: []string{"127.0.0.1:2"}, Branch: "fec-adapt,fec-encode=6/4"}); err == nil {
		t.Fatal("fec-adapt + fec-encode branch accepted")
	}
	if _, err := New(Config{Adapt: true, Fanout: []string{"127.0.0.1:2"}, Branch: "fec-encode=6/4"}); err == nil {
		t.Fatal("Adapt + static fec-encode branch accepted")
	}
	// fec-adapt alone implies the feedback plane, no Adapt flag needed.
	e, err := New(Config{ListenAddr: "127.0.0.1:0", Fanout: []string{"127.0.0.1:2"}, Branch: "fec-adapt"})
	if err != nil {
		t.Fatalf("fec-adapt branch rejected: %v", err)
	}
	if !e.adaptOn || e.group == nil {
		t.Fatalf("fec-adapt branch: adaptOn=%v fan-out=%v", e.adaptOn, e.group != nil)
	}
	// A Branch spec without configured fan-out members still builds a group
	// for runtime joins.
	e, err = New(Config{ListenAddr: "127.0.0.1:0", Branch: "thin=2"})
	if err != nil {
		t.Fatalf("Branch without Fanout rejected: %v", err)
	}
	if e.FanoutGroup() == nil {
		t.Fatal("Branch without Fanout did not set up the delivery tree")
	}
}

// TestEngineCohortChurnNoLoss races cohort migration against live traffic:
// one of two receivers oscillates its loss reports across the adaptation
// threshold, so its membership ping-pongs between the shared bypass lane and
// an FEC cohort while data keeps flowing. The handover contract being pinned:
// every data frame reaches the churning receiver exactly once — never lost,
// never duplicated — and its delivery counters stay exact: zero drops, and
// the datagrams counted for the branch are exactly the datagrams its socket
// saw.
func TestEngineCohortChurnNoLoss(t *testing.T) { testCohortChurn(t, "") }

// TestEngineCohortChurnTimedTail is the same race with a timed stage in every
// cohort's tail: frames a delay stage still holds when the member moves must
// go out to the cohort's members they entered for, once.
func TestEngineCohortChurnTimedTail(t *testing.T) { testCohortChurn(t, "fec-adapt,delay=1ms") }

func testCohortChurn(t *testing.T, branch string) {
	rxStable := listenReceiver(t)
	rxChurn := listenReceiver(t)
	e := newTestEngine(t, Config{
		Adapt:  true,
		Branch: branch,
		Fanout: []string{rxStable.LocalAddr().String(), rxChurn.LocalAddr().String()},
	})
	c := dialEngine(t, e)
	const id = 11

	// Drain the stable receiver so its kernel queue can never back up.
	go func() {
		buf := make([]byte, packet.MaxDatagram)
		for {
			rxStable.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := rxStable.Read(buf); err != nil {
				return
			}
		}
	}()

	// Record everything the churning receiver's socket sees: how often each
	// data frame arrived and how many datagrams arrived in total, parity
	// included. Frame identity rides in the payload, not the header sequence
	// number — an FEC cohort re-sequences data into block coordinates, but
	// payload bytes survive every repair mechanism.
	var mu sync.Mutex
	seen := make(map[uint64]int)
	socketFrames := uint64(0)
	go func() {
		buf := make([]byte, packet.MaxDatagram)
		for {
			rxChurn.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, err := rxChurn.Read(buf)
			if err != nil {
				return
			}
			_, frame, err := packet.SplitSessionID(buf[:n])
			if err != nil {
				continue
			}
			p, _, err := packet.Unmarshal(frame)
			if err != nil {
				continue
			}
			mu.Lock()
			socketFrames++
			if p.Kind == packet.KindData && len(p.Payload) >= 8 {
				seen[binary.BigEndian.Uint64(p.Payload)]++
			}
			mu.Unlock()
		}
	}()

	stamp := func(seq uint64) []byte {
		p := make([]byte, 8)
		binary.BigEndian.PutUint64(p, seq)
		return p
	}
	sendPacket(t, c, id, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: stamp(0)})
	churnKey := rxChurn.LocalAddr().(*net.UDPAddr).AddrPort().String()
	receiverStat(t, e, id, churnKey, "prime delivery", func(rs metrics.ReceiverStats) bool {
		return rs.OutPackets >= 1
	})

	// Each round flips the churning receiver's report across the policy
	// threshold and immediately pushes a burst of data, so the cohort move
	// lands in the middle of live traffic.
	const rounds, perRound = 8, 25
	seq := uint64(1)
	for r := 0; r < rounds; r++ {
		rep := packet.Report{Received: 90, Lost: 10, Window: 100}
		wantActive := true
		if r%2 == 1 {
			rep = packet.Report{Received: 100, Lost: 0, Window: 100}
			wantActive = false
		}
		reportFrom(t, rxChurn, e, id, rep)
		for i := 0; i < perRound; i++ {
			sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: stamp(seq)})
			seq++
			time.Sleep(200 * time.Microsecond)
		}
		receiverStat(t, e, id, churnKey, "cohort move", func(rs metrics.ReceiverStats) bool {
			return rs.Active == wantActive
		})
	}
	last := seq - 1
	// The last burst may sit in a partial FEC group or a delay stage; a
	// final move flushes it.
	reportFrom(t, rxChurn, e, id, packet.Report{Received: 90, Lost: 10, Window: 100})

	// Every data frame arrives, and exactly once.
	tally := func() (missing, dup []uint64) {
		mu.Lock()
		defer mu.Unlock()
		for s := uint64(0); s <= last; s++ {
			switch seen[s] {
			case 0:
				missing = append(missing, s)
			case 1:
			default:
				dup = append(dup, s)
			}
		}
		return missing, dup
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		missing, dup := tally()
		if len(dup) > 0 {
			t.Fatalf("data frames delivered more than once to the churning receiver: %v", dup)
		}
		if len(missing) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d data frames never reached the churning receiver: %v", len(missing), last+1, missing)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Counters stay exact through churn: nothing dropped, and the branch's
	// send counter matches the socket's arrival count once traffic settles.
	receiverStat(t, e, id, churnKey, "counter reconciliation", func(rs metrics.ReceiverStats) bool {
		mu.Lock()
		got := socketFrames
		mu.Unlock()
		return rs.Drops == 0 && rs.OutPackets == got
	})
	if _, dup := tally(); len(dup) > 0 {
		t.Fatalf("data frames delivered more than once to the churning receiver: %v", dup)
	}
}
