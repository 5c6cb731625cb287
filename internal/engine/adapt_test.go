package engine

import (
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/metrics"
	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
)

// sendReport writes one feedback datagram for session id from conn.
func sendReport(t *testing.T, c *net.UDPConn, id uint32, rep packet.Report) {
	t.Helper()
	dgram, err := packet.AppendReportDatagram(nil, id, 0, 0, rep)
	if err != nil {
		t.Fatalf("AppendReportDatagram: %v", err)
	}
	if _, err := c.Write(dgram); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

// waitAdapt polls the session's adaptation stats until cond holds.
func waitAdapt(t *testing.T, e *Engine, id uint32, what string, cond func(*metrics.AdaptStats) bool) *metrics.AdaptStats {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var last *metrics.AdaptStats
	for time.Now().Before(deadline) {
		if s := e.Session(id); s != nil {
			st := s.Stats()
			last = st.Adapt
			if last != nil && cond(last) {
				return last
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: adaptation state never converged; last %+v", what, last)
	return nil
}

// TestEngineAdaptationClosedLoop drives the full loop over the wire: a
// receiver report claiming 10% loss makes the session splice in a stronger
// code within one observation window, and a clean report returns it to the
// pure relay path.
func TestEngineAdaptationClosedLoop(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	c := dialEngine(t, e)

	// Establish the session and verify the clean-link relay path.
	sendPacket(t, c, 77, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: []byte("warm")})
	readPacket(t, c, 2*time.Second)
	st := waitAdapt(t, e, 77, "initial", func(a *metrics.AdaptStats) bool { return true })
	if st.Active || st.N != 1 || st.K != 1 {
		t.Fatalf("clean-link adapt state = %+v, want inactive 1/1", st)
	}

	// One observation window at 10% loss: the policy ladder selects (8,4).
	sendReport(t, c, 77, packet.Report{HighestSeq: 0, Received: 90, Lost: 10, Window: 100})
	st = waitAdapt(t, e, 77, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active })
	if st.N != 8 || st.K != 4 {
		t.Fatalf("upgraded code = %d/%d, want 8/4", st.N, st.K)
	}
	if st.Reports != 1 || st.Receivers != 1 || st.Retunes == 0 {
		t.Fatalf("adapt counters = %+v", st)
	}

	// A full FEC group now emits data plus parity.
	for i := 1; i <= 4; i++ {
		sendPacket(t, c, 77, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	var data, parity int
	for i := 0; i < 8; i++ {
		_, p := readPacket(t, c, 2*time.Second)
		switch p.Kind {
		case packet.KindData:
			data++
		case packet.KindParity:
			parity++
		}
	}
	if data != 4 || parity != 4 {
		t.Fatalf("got %d data / %d parity, want 4/4 under the (8,4) code", data, parity)
	}

	// A clean window removes the encoder again.
	sendReport(t, c, 77, packet.Report{HighestSeq: 4, Received: 100, Lost: 0, Window: 100})
	st = waitAdapt(t, e, 77, "downgrade", func(a *metrics.AdaptStats) bool { return !a.Active })
	if st.N != 1 || st.K != 1 {
		t.Fatalf("downgraded code = %d/%d, want 1/1", st.N, st.K)
	}
	if st.HighestSeq != 4 {
		t.Fatalf("HighestSeq = %d, want 4", st.HighestSeq)
	}

	// Back on the pure relay path: one in, one out, no parity.
	sendPacket(t, c, 77, &packet.Packet{Seq: 9, Kind: packet.KindData, Payload: []byte("clean")})
	_, p := readPacket(t, c, 2*time.Second)
	if p.Kind != packet.KindData || string(p.Payload) != "clean" {
		t.Fatalf("post-downgrade packet %v", p)
	}
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Read(make([]byte, packet.MaxDatagram)); err == nil {
		t.Fatal("unexpected extra datagram after downgrade")
	}
	if e.Stats().Feedback != 2 {
		t.Fatalf("engine feedback counter = %d, want 2", e.Stats().Feedback)
	}
}

// TestEngineAdaptsToWorstFanoutReceiver reproduces the paper's multicast
// argument at engine scale: with output fanned out to two receivers, the
// session's code follows the *worst* reporter, and only recovers when every
// receiver is clean.
func TestEngineAdaptsToWorstFanoutReceiver(t *testing.T) {
	rxA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxA.Close()
	rxB, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxB.Close()

	e := newTestEngine(t, Config{
		Adapt:  true,
		Fanout: []string{rxA.LocalAddr().String(), rxB.LocalAddr().String()},
	})
	c := dialEngine(t, e)

	// One data packet reaches both receivers.
	sendPacket(t, c, 5, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("fanout")})
	for _, rx := range []*net.UDPConn{rxA, rxB} {
		buf := make([]byte, packet.MaxDatagram)
		rx.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := rx.Read(buf)
		if err != nil {
			t.Fatalf("receiver read: %v", err)
		}
		id, frame, err := packet.SplitSessionID(buf[:n])
		if err != nil || id != 5 {
			t.Fatalf("receiver got session %d (err %v)", id, err)
		}
		if _, _, err := packet.Unmarshal(frame); err != nil {
			t.Fatalf("receiver frame: %v", err)
		}
	}

	// Receiver A is clean, receiver B sees 12% loss: the worst wins.
	engAddr := e.LocalAddr().(*net.UDPAddr)
	reportFrom := func(rx *net.UDPConn, rep packet.Report) {
		dgram, err := packet.AppendReportDatagram(nil, 5, 0, 0, rep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rx.WriteToUDP(dgram, engAddr); err != nil {
			t.Fatal(err)
		}
	}
	reportFrom(rxA, packet.Report{Received: 100, Lost: 0, Window: 100})
	reportFrom(rxB, packet.Report{Received: 88, Lost: 12, Window: 100})
	st := waitAdapt(t, e, 5, "worst-receiver upgrade", func(a *metrics.AdaptStats) bool { return a.Active })
	if st.N != 8 || st.K != 4 {
		t.Fatalf("code = %d/%d, want 8/4 for the worst receiver", st.N, st.K)
	}
	if st.Receivers != 2 {
		t.Fatalf("Receivers = %d, want 2", st.Receivers)
	}

	// B recovering releases the code even though A reported earlier.
	reportFrom(rxB, packet.Report{Received: 100, Lost: 0, Window: 100})
	waitAdapt(t, e, 5, "recovery", func(a *metrics.AdaptStats) bool { return !a.Active && a.N == 1 })
}

// TestEngineFeedbackNeverOpensSessions checks that reports for unknown
// sessions are counted and dropped, not turned into sessions or chains.
func TestEngineFeedbackNeverOpensSessions(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	c := dialEngine(t, e)

	sendReport(t, c, 99, packet.Report{Received: 1, Lost: 1, Window: 2})
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Feedback == 0 {
		if time.Now().After(deadline) {
			t.Fatal("feedback counter never incremented")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := e.SessionCount(); n != 0 {
		t.Fatalf("SessionCount = %d after orphan report, want 0", n)
	}
}

// TestEngineFeedbackIgnoredWithoutAdapt checks that the feedback kind is
// consumed (not relayed) even when the adaptation plane is off.
func TestEngineFeedbackIgnoredWithoutAdapt(t *testing.T) {
	e := newTestEngine(t, Config{})
	c := dialEngine(t, e)

	sendPacket(t, c, 3, &packet.Packet{Kind: packet.KindData, Payload: []byte("x")})
	readPacket(t, c, 2*time.Second)
	sendReport(t, c, 3, packet.Report{Received: 50, Lost: 50, Window: 100})

	// The report is consumed: nothing is echoed and the session stays on the
	// plain relay path with no adaptation state.
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Read(make([]byte, packet.MaxDatagram)); err == nil {
		t.Fatal("feedback datagram was relayed")
	}
	st := e.Session(3).Stats()
	if st.Adapt != nil {
		t.Fatalf("adapt state %+v on a non-adaptive engine", st.Adapt)
	}
}

// TestEngineSweepAllExpiresStaleReceivers drives staleness aging by the
// maintenance tick's clock: a sweep inside the window leaves the receiver
// alone, one past it expires the receiver and decays the session to the
// clean-link path without any report arriving, and a sweep with nothing left
// to expire changes nothing.
func TestEngineSweepAllExpiresStaleReceivers(t *testing.T) {
	const window = time.Minute
	e := newTestEngine(t, Config{Adapt: true, ReportStaleness: window})
	c := dialEngine(t, e)

	sendPacket(t, c, 55, &packet.Packet{Kind: packet.KindData, Payload: []byte("x")})
	readPacket(t, c, 2*time.Second)
	sendReport(t, c, 55, packet.Report{Received: 90, Lost: 10, Window: 100})
	waitAdapt(t, e, 55, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active })
	s := e.Session(55)

	e.maintain(time.Now().Add(window / 2))
	if st := s.Stats().Adapt; !st.Active || st.Receivers != 1 || st.Expired != 0 {
		t.Fatalf("sweep inside the window: %+v, want the receiver kept", st)
	}
	e.maintain(time.Now().Add(window + time.Second))
	st := s.Stats().Adapt
	if st.Active || st.N != 1 || st.Receivers != 0 || st.Expired != 1 {
		t.Fatalf("sweep past the window: %+v, want inactive 1/1, no receivers, 1 expired", st)
	}
	e.maintain(time.Now().Add(3 * window))
	if again := s.Stats().Adapt; again.Expired != 1 || again.Retunes != st.Retunes {
		t.Fatalf("idle sweep: %+v, want nothing more expired or retuned", again)
	}
}

// TestEngineSweepAgesOutDeadWorstReceiver fans a session out to two stations
// and lets the worst one crash: once its report crosses the staleness window
// the session view follows the live station instead of the dead one, and when
// the live station goes silent too the session decays to the clean link.
func TestEngineSweepAgesOutDeadWorstReceiver(t *testing.T) {
	const window = time.Hour
	rxDead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxDead.Close()
	rxLive, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxLive.Close()

	e := newTestEngine(t, Config{
		Adapt:           true,
		ReportStaleness: window,
		Fanout:          []string{rxDead.LocalAddr().String(), rxLive.LocalAddr().String()},
	})
	c := dialEngine(t, e)
	sendPacket(t, c, 57, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("fanout")})
	for _, rx := range []*net.UDPConn{rxDead, rxLive} {
		rx.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := rx.Read(make([]byte, packet.MaxDatagram)); err != nil {
			t.Fatalf("receiver read: %v", err)
		}
	}
	engAddr := e.LocalAddr().(*net.UDPAddr)
	reportFrom := func(rx *net.UDPConn, rep packet.Report) {
		dgram, err := packet.AppendReportDatagram(nil, 57, 0, 0, rep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rx.WriteToUDP(dgram, engAddr); err != nil {
			t.Fatal(err)
		}
	}

	// A report is counted before its decision is applied (the member's move
	// to its cohort), so wait for each station's own row to carry the
	// decision: a sweep must not overtake a move still in flight.
	applied := func(rx *net.UDPConn, loss float64) {
		t.Helper()
		receiverStat(t, e, 57, rx.LocalAddr().String(), "decision applied", func(r metrics.ReceiverStats) bool {
			return r.Reports == 1 && r.LossRate == loss
		})
	}

	// The station that will crash reports first and worst; deadBy bounds the
	// moment its report was stamped, and the live station reports after it.
	reportFrom(rxDead, packet.Report{Received: 70, Lost: 30, Window: 100})
	applied(rxDead, 0.30)
	deadBy := time.Now()
	time.Sleep(10 * time.Millisecond)
	reportFrom(rxLive, packet.Report{Received: 98, Lost: 2, Window: 100})
	applied(rxLive, 0.02)
	st := e.Session(57).Stats().Adapt
	if st.LossRate != 0.30 || st.Receivers != 2 {
		t.Fatalf("before aging: %+v, want the dead station's 0.30 over 2 receivers", st)
	}
	s := e.Session(57)

	// Inside the window nothing ages out.
	e.maintain(deadBy.Add(window / 2))
	if st := s.Stats().Adapt; st.Receivers != 2 || st.Expired != 0 {
		t.Fatalf("sweep inside the window: %+v, want both receivers kept", st)
	}

	// The dead station's report crosses the window, the live one's does not:
	// the session view no longer follows the dead station.
	e.maintain(deadBy.Add(window + 5*time.Millisecond))
	st = s.Stats().Adapt
	if st.LossRate != 0.02 || st.Receivers != 1 || st.Expired != 1 {
		t.Fatalf("after aging: %+v, want the live station's 0.02, 1 receiver, 1 expired", st)
	}

	// The last station going silent decays the session to the clean link.
	e.maintain(deadBy.Add(3 * window))
	st = s.Stats().Adapt
	if st.Active || st.N != 1 || st.LossRate != 0 || st.Receivers != 0 || st.Expired != 2 {
		t.Fatalf("after the last station aged out: %+v, want inactive 1/1, clean, 0 receivers, 2 expired", st)
	}
}

// TestEngineTimerSweepsSilentReceivers is the regression test for staleness
// aging without traffic: before the timer-driven sweep, expiry only ran on
// the report path, so once every station of a session went silent — the exact
// situation aging exists for — the last report pinned its protection level
// forever.
func TestEngineTimerSweepsSilentReceivers(t *testing.T) {
	const window = 100 * time.Millisecond
	e := newTestEngine(t, Config{Adapt: true, ReportStaleness: window})
	c := dialEngine(t, e)

	sendPacket(t, c, 56, &packet.Packet{Kind: packet.KindData, Payload: []byte("x")})
	readPacket(t, c, 2*time.Second)
	sendReport(t, c, 56, packet.Report{Received: 90, Lost: 10, Window: 100})
	waitAdapt(t, e, 56, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active })

	// Total silence from here on. The timer must decay the session back to
	// the clean-link path on its own.
	st := waitAdapt(t, e, 56, "silent decay", func(a *metrics.AdaptStats) bool { return !a.Active })
	if st.Expired == 0 {
		t.Fatalf("Expired = 0 after silent decay, want > 0")
	}
}

func TestEngineForwardAndFanoutAreExclusive(t *testing.T) {
	_, err := New(Config{Forward: "127.0.0.1:1", Fanout: []string{"127.0.0.1:2"}})
	if err == nil {
		t.Fatal("Forward+Fanout config accepted")
	}
}

func TestEngineAdaptRejectsStaticFECChain(t *testing.T) {
	if _, err := New(Config{Adapt: true, Chain: "counting,fec-encode=6/4"}); err == nil {
		t.Fatal("Adapt + static fec-encode chain accepted (would double-encode)")
	}
	// fec-decode under Adapt is legitimate (decode inbound, re-protect outbound).
	if _, err := New(Config{Adapt: true, Chain: "counting,fec-decode"}); err != nil {
		t.Fatalf("Adapt + fec-decode rejected: %v", err)
	}
}

// TestEngineSpoofedFeedbackIgnored checks that a report from an off-path
// socket (not the session's peer) cannot steer the session's FEC level.
func TestEngineSpoofedFeedbackIgnored(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	owner := dialEngine(t, e)
	intruder := dialEngine(t, e)

	sendPacket(t, owner, 44, &packet.Packet{Kind: packet.KindData, Payload: []byte("mine")})
	readPacket(t, owner, 2*time.Second)

	// The intruder claims total loss on the owner's session.
	sendReport(t, intruder, 44, packet.Report{Received: 0, Lost: 100, Window: 100})
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Feedback == 0 {
		if time.Now().After(deadline) {
			t.Fatal("feedback counter never incremented")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := waitAdapt(t, e, 44, "spoof", func(a *metrics.AdaptStats) bool { return true })
	if st.Active || st.Reports != 0 || st.Receivers != 0 {
		t.Fatalf("spoofed report steered the session: %+v", st)
	}

	// The legitimate peer's report still works.
	sendReport(t, owner, 44, packet.Report{Received: 90, Lost: 10, Window: 100})
	waitAdapt(t, e, 44, "owner upgrade", func(a *metrics.AdaptStats) bool { return a.Active })
}

// TestEngineRoamedPeerReportDoesNotPin checks that under AllowRoaming the
// address a unicast session roamed away from stops counting as a receiver:
// its last lossy report must not hold the code once the new address reports
// a clean link, even with report aging off.
func TestEngineRoamedPeerReportDoesNotPin(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true, AllowRoaming: true})
	first := dialEngine(t, e)
	second := dialEngine(t, e)

	sendPacket(t, first, 45, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("a")})
	readPacket(t, first, 2*time.Second)
	sendReport(t, first, 45, packet.Report{Received: 80, Lost: 20, Window: 100})
	waitAdapt(t, e, 45, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active })

	// The encoder holds this frame for its group, so wait for the roam itself.
	sendPacket(t, second, 45, &packet.Packet{Seq: 2, Kind: packet.KindData, Payload: []byte("b")})
	roamed := second.LocalAddr().(*net.UDPAddr).AddrPort()
	waitFor(t, "session to roam", func() bool { return e.Session(45).Peer() == roamed })
	sendReport(t, second, 45, packet.Report{Received: 100, Window: 100})
	st := waitAdapt(t, e, 45, "roamed clean", func(a *metrics.AdaptStats) bool { return !a.Active })
	if st.N != 1 || st.Receivers != 1 {
		t.Fatalf("after roaming: %+v, want 1/1 over one receiver", st)
	}
}

// TestEngineFanoutRemovalUnpinsWorstReceiver checks that removing the worst
// receiver from the fan-out group releases the code on the next report.
func TestEngineFanoutRemovalUnpinsWorstReceiver(t *testing.T) {
	rxA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxA.Close()
	rxB, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxB.Close()

	e := newTestEngine(t, Config{
		Adapt:  true,
		Fanout: []string{rxA.LocalAddr().String(), rxB.LocalAddr().String()},
	})
	c := dialEngine(t, e)
	sendPacket(t, c, 6, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("x")})
	// Reports for a session that does not exist yet are dropped, and another
	// shard's reader may well see them first.
	waitFor(t, "session 6 to open", func() bool { return e.Session(6) != nil })

	engAddr := e.LocalAddr().(*net.UDPAddr)
	reportFrom := func(rx *net.UDPConn, rep packet.Report) {
		dgram, err := packet.AppendReportDatagram(nil, 6, 0, 0, rep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rx.WriteToUDP(dgram, engAddr); err != nil {
			t.Fatal(err)
		}
	}
	reportFrom(rxA, packet.Report{Received: 100, Lost: 0, Window: 100})
	reportFrom(rxB, packet.Report{Received: 70, Lost: 30, Window: 100})
	waitAdapt(t, e, 6, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active && a.N == 12 })

	// B leaves the group; A's next clean report must release the code even
	// though B never reported recovery.
	if !e.FanoutGroup().Remove(rxB.LocalAddr().(*net.UDPAddr).AddrPort()) {
		t.Fatal("receiver B not removed from group")
	}
	reportFrom(rxA, packet.Report{Received: 100, Lost: 0, Window: 100})
	st := waitAdapt(t, e, 6, "unpin", func(a *metrics.AdaptStats) bool { return !a.Active })
	if st.Receivers != 1 {
		t.Fatalf("Receivers = %d after removal, want 1", st.Receivers)
	}
}

// TestEngineAlwaysOnPolicyEngagesImmediately checks that a policy whose
// cleanest rung already demands FEC protects the session before any
// receiver report arrives.
func TestEngineAlwaysOnPolicyEngagesImmediately(t *testing.T) {
	policy := adapt.Policy{Levels: []adapt.Level{{LossAtLeast: 0, Params: fec.Params{K: 4, N: 6}}}}
	e := newTestEngine(t, Config{Adapt: true, AdaptPolicy: policy})
	c := dialEngine(t, e)

	// The first group of 4 data packets must already come back protected.
	for i := 0; i < 4; i++ {
		sendPacket(t, c, 12, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	var data, parity int
	for i := 0; i < 6; i++ {
		_, p := readPacket(t, c, 2*time.Second)
		switch p.Kind {
		case packet.KindData:
			data++
		case packet.KindParity:
			parity++
		}
	}
	if data != 4 || parity != 2 {
		t.Fatalf("got %d data / %d parity, want 4/2 under always-on (6,4)", data, parity)
	}
	st := waitAdapt(t, e, 12, "always-on", func(a *metrics.AdaptStats) bool { return a.Active })
	if st.N != 6 || st.K != 4 {
		t.Fatalf("always-on code = %d/%d, want 6/4", st.N, st.K)
	}
}

// openTrunkLoop opens unicast session id without a socket and returns it with
// its trunk loop, so a test can feed the loop reports directly.
func openTrunkLoop(t *testing.T, e *Engine, id uint32) (*Session, *receiverLoop) {
	t.Helper()
	s, err := e.openSession(id, netip.MustParseAddrPort("10.9.0.1:4000"))
	if err != nil {
		t.Fatal(err)
	}
	return s, s.cs.Load().trunk
}

// reportLoss feeds a loop one report of lostPct percent loss.
func reportLoss(l *receiverLoop, lostPct uint32) {
	l.report(packet.Report{Received: 100 - lostPct, Lost: lostPct, Window: 100}, time.Now().UnixNano())
}

// TestEngineTrunkReconcileLifecycle drives a unicast trunk's loop through a
// protection cycle: loss splices an FEC encoder in at the fec-adapt marker, a
// move between FEC levels swaps in a fresh encoder with the new level's code,
// the same level again is no retune, a clean link splices it out, and loss
// returning splices in a fresh one. Every report is applied before report
// returns.
func TestEngineTrunkReconcileLifecycle(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	s, l := openTrunkLoop(t, e, 7)
	encoder := func() any { return s.Live().Instance(compose.KindFECAdapt) }
	check := func(step string, active bool, k, n int, retunes uint64) {
		t.Helper()
		st := s.Stats().Adapt
		if st.Active != active || (encoder() != nil) != active || st.K != k || st.N != n ||
			st.Retunes != retunes || s.AdaptRetunes() != retunes {
			t.Fatalf("%s: %+v (AdaptRetunes %d), want active=%v %d/%d after %d retunes",
				step, st, s.AdaptRetunes(), active, n, k, retunes)
		}
	}
	check("clean start", false, 1, 1, 0)
	reportLoss(l, 10)
	check("10% loss", true, 4, 8, 1)
	enc := encoder()
	reportLoss(l, 30)
	check("30% loss", true, 4, 12, 2)
	swapped, ok := encoder().(*fec.EncodeStage)
	if !ok || swapped == enc || swapped.Params() != (fec.Params{K: 4, N: 12}) {
		t.Fatalf("a level change left %T at the marker, want a fresh encoder with the (12,4) code", encoder())
	}
	enc = swapped
	reportLoss(l, 28)
	check("28% loss", true, 4, 12, 2)
	if encoder() != enc {
		t.Fatal("a report at the same level replaced the encoder")
	}
	if loss := s.Stats().Adapt.LossRate; loss != 0.28 {
		t.Fatalf("LossRate = %v, want the 0.28 last acted on", loss)
	}
	reportLoss(l, 0)
	check("clean link", false, 1, 1, 3)
	reportLoss(l, 5)
	check("5% loss", true, 4, 6, 4)
	if encoder() == enc {
		t.Fatal("loss returning reused the stopped encoder")
	}
	if plan := s.Live().String(); plan != compose.KindFECAdapt {
		t.Fatalf("plan = %q, want the marker alone throughout", plan)
	}
}

// TestEngineTrunkReconcileFECOnlyPolicy guards reconciling against the chain
// rather than the previous decision: with a policy that has no clean rung,
// the first decision already matches the ladder's only level, and the encoder
// must still be spliced in — at priming, before any report.
func TestEngineTrunkReconcileFECOnlyPolicy(t *testing.T) {
	policy := adapt.Policy{Levels: []adapt.Level{{LossAtLeast: 0.10, Params: fec.Params{K: 4, N: 8}}}}
	e := newTestEngine(t, Config{Adapt: true, AdaptPolicy: policy})
	s, l := openTrunkLoop(t, e, 1)
	if st := s.Stats().Adapt; !st.Active || st.N != 8 || st.Retunes != 1 {
		t.Fatalf("FEC-only policy at priming: %+v, want the (8,4) encoder after 1 retune", st)
	}
	reportLoss(l, 20)
	if st := s.Stats().Adapt; !st.Active || st.N != 8 || st.Retunes != 1 {
		t.Fatalf("FEC-only policy after a report at its level: %+v, want no further retune", st)
	}
}

// TestEngineAdaptPolicyValidation checks that a ladder the loops could not
// apply is refused when the engine is built, and that the zero policy selects
// the default ladder.
func TestEngineAdaptPolicyValidation(t *testing.T) {
	for _, level := range []adapt.Level{
		{LossAtLeast: 0.1, Params: fec.Params{K: 8, N: 4}},
		{LossAtLeast: 1.5, Params: fec.Params{K: 4, N: 6}},
	} {
		if _, err := New(Config{Adapt: true, AdaptPolicy: adapt.Policy{Levels: []adapt.Level{level}}}); err == nil {
			t.Fatalf("policy level %+v accepted", level)
		}
	}
	e, err := New(Config{ListenAddr: "127.0.0.1:0", Adapt: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.policy.String(), adapt.DefaultPolicy().String(); got != want {
		t.Fatalf("zero policy resolved to %q, want the default %q", got, want)
	}
}

// TestEngineTrunkReconcileDormantWithoutMarker pins the recompose-vs-loop
// contract on a unicast trunk: when an operator recomposes the fec-adapt
// marker away, the encoder goes with it and the loop goes dormant — reports
// are decided and recorded but engage nothing — until a recompose restores
// the marker and the next report re-engages it.
func TestEngineTrunkReconcileDormantWithoutMarker(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	s, l := openTrunkLoop(t, e, 7)
	reportLoss(l, 10)
	if st := s.Stats().Adapt; !st.Active {
		t.Fatalf("encoder not spliced before the recompose: %+v", st)
	}

	if _, err := e.EditSession(7, "", compose.Replace("counting")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Adapt; st.Active {
		t.Fatalf("recompose without the marker left the encoder active: %+v", st)
	}
	reportLoss(l, 30)
	if st := s.Stats().Adapt; st.Active || st.N != 12 || s.Live().String() != "counting" {
		t.Fatalf("dormant loop: %+v on %q, want the 12/4 decision recorded and the plan untouched", st, s.Live().String())
	}

	if _, err := e.EditSession(7, "", compose.Replace("fec-adapt,counting")); err != nil {
		t.Fatal(err)
	}
	reportLoss(l, 30)
	if st := s.Stats().Adapt; !st.Active || s.Live().Instance(compose.KindFECAdapt) == nil {
		t.Fatalf("loop did not resume after the marker returned: %+v", st)
	}
}

// TestEngineRetireVsReportStorm races a unicast trunk's loop against the
// session's retirement: reports stream in from the peer while the maintenance
// tick parks the session, a data packet unparks it, and CloseSession finally
// ends it. No decision may land on a retired incarnation — its retune count
// and its loop's state stay as they were when it retired — so every parked
// snapshot is exactly the last decision applied. Run under -race.
func TestEngineRetireVsReportStorm(t *testing.T) {
	const ttl = time.Hour // parking is driven by explicit maintain calls
	e := newTestEngine(t, Config{Adapt: true, IdleTTL: ttl})
	const id = 21
	c := openEchoSession(t, e, id)
	s := e.Session(id)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := uint32(0); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			lost := []uint32{0, 10, 30}[n%3] // none, (8,4), (12,4): every report retunes
			dgram, err := packet.AppendReportDatagram(nil, id, 0, 0, packet.Report{HighestSeq: uint64(n), Received: 100 - lost, Lost: lost, Window: 100})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Write(dgram); err != nil {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	type retired struct {
		cs      *chainState
		snap    metrics.AdaptStats
		retunes uint64
	}
	var gone []retired
	now := time.Now()
	for round := 0; round < 30; round++ {
		cs := s.cs.Load()
		waitFor(t, "the storm to retune this incarnation", func() bool { return cs.retunes.Load() > 0 })
		now = now.Add(ttl)
		e.maintain(now) // observes the unparking packet
		now = now.Add(ttl)
		e.maintain(now) // parks
		if !s.Parked() {
			t.Fatalf("round %d: session not parked", round)
		}
		gone = append(gone, retired{cs: cs, snap: *s.Stats().Adapt, retunes: cs.retunes.Load()})
		packets := s.Counters().Packets.Load()
		sendPacket(t, c, id, &packet.Packet{Seq: uint64(round), Kind: packet.KindData, Payload: []byte("unpark")})
		waitFor(t, "the unparking packet", func() bool { return s.Counters().Packets.Load() > packets })
	}
	last := s.cs.Load()
	if err := e.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	closedRetunes := last.retunes.Load()
	close(stop)
	wg.Wait()

	for i, g := range gone {
		if got := g.cs.retunes.Load(); got != g.retunes {
			t.Fatalf("round %d: %d retunes counted after parking, %d at retirement", i, got, g.retunes)
		}
		if got := *adaptStats(g.cs.trunk); got != g.snap {
			t.Fatalf("round %d: parked snapshot %+v, last decision applied %+v", i, g.snap, got)
		}
	}
	if got := last.retunes.Load(); got != closedRetunes {
		t.Fatalf("%d retunes counted after close, %d at retirement", got, closedRetunes)
	}
}

// TestEngineLevelChangesNeverRepeatGroupNumbers changes a receiver's
// protection level while data flows: reports of 10% and 30% loss, a clean
// link, 10% again and a clean link again. It runs on a unicast trunk, whose
// loop swaps a fresh encoder in at its marker on every change, and on a
// fan-out member, which moves between FEC cohorts. A receiver's frame decoder
// remembers 64 groups and refuses a share for a remembered group under
// another code or an index it already has, so every encoder the session
// builds must number its groups past the ones before it: the decoder must
// take every share and deliver every data frame exactly once.
func TestEngineLevelChangesNeverRepeatGroupNumbers(t *testing.T) {
	const id = 5
	src := netip.MustParseAddrPort("10.9.1.1:4000")
	member := netip.MustParseAddrPort("10.9.1.2:4000")
	for _, tc := range []struct {
		name     string
		cfg      Config
		receiver netip.AddrPort
	}{
		{"unicast retune", Config{Adapt: true}, src},
		{"fan-out cohort move", Config{Adapt: true, Fanout: []string{member.String()}}, member},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, sc := newSimEngine(t, tc.cfg)
			sent := 0
			feed := func(n int) {
				for n > 0 {
					batch := make([]simDgram, min(n, netbatch.BatchSize))
					for i := range batch {
						payload := make([]byte, 160)
						binary.BigEndian.PutUint32(payload, uint32(sent))
						batch[i] = simDgram{data: mustDatagram(t, id, uint64(sent), payload), from: src}
						sent++
					}
					sc.in <- batch
					n -= len(batch)
				}
			}
			report := func(lostPct uint32) {
				d, err := packet.AppendReportDatagram(nil, id, 0, 0, packet.Report{Received: 100 - lostPct, Lost: lostPct, Window: 100})
				if err != nil {
					t.Fatal(err)
				}
				sc.in <- []simDgram{{data: d, from: tc.receiver}}
			}
			// The last clean report splices the last encoder out, or moves
			// the member off its cohort, which flushes the partial group.
			feed(20)
			report(10)
			feed(37)
			report(30)
			feed(23)
			report(0)
			feed(21)
			report(10)
			feed(35)
			report(0)
			dataSent := func() int {
				n := 0
				for _, d := range sc.sentTo(tc.receiver) {
					if packet.FrameKind(d[packet.SessionIDSize:]) == packet.KindData {
						n++
					}
				}
				return n
			}
			waitFor(t, "every data frame sent", func() bool { return dataSent() >= sent })
			if got := e.Session(id).AdaptRetunes(); got != 5 {
				t.Fatalf("%d retunes, want 5: the loss reports did not all change the level", got)
			}

			dec := fec.NewFrameDecoder(0)
			delivered := make([]int, sent)
			refused := 0
			for _, d := range sc.sentTo(tc.receiver) {
				frame := d[packet.SessionIDSize:]
				b := packet.GetBuf(len(frame))
				copy(b.B, frame)
				if err := dec.Add(b, func(out *packet.Buf) {
					delivered[binary.BigEndian.Uint32(out.B[packet.HeaderSize:])]++
					out.Release()
				}); err != nil {
					refused++
				}
			}
			wrong := 0
			for _, n := range delivered {
				if n != 1 {
					wrong++
				}
			}
			if wrong != 0 || refused != 0 {
				t.Fatalf("%d of %d data frames not delivered exactly once and %d shares refused, want 0 and 0",
					wrong, sent, refused)
			}
		})
	}
}
