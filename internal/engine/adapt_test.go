package engine

import (
	"net"
	"testing"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/fec"
	"rapidware/internal/metrics"
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

// TestEngineSweepAllExpiresStaleReceivers exercises the sweep machinery with
// an injected fake clock: a receiver whose last report predates the staleness
// window is expired by sweepAll regardless of whether any report arrives to
// trigger it.
func TestEngineSweepAllExpiresStaleReceivers(t *testing.T) {
	const window = time.Minute
	e := newTestEngine(t, Config{Adapt: true, ReportStaleness: window})
	c := dialEngine(t, e)

	sendPacket(t, c, 55, &packet.Packet{Kind: packet.KindData, Payload: []byte("x")})
	readPacket(t, c, 2*time.Second)
	sendReport(t, c, 55, packet.Report{Received: 90, Lost: 10, Window: 100})
	waitAdapt(t, e, 55, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active })

	// Re-arm the trunk loop's observer on a fake clock and jump past the
	// window; nothing else reports, so only a sweep can expire the receiver.
	s := e.Session(55)
	a := s.state().adaptor
	a.mu.Lock()
	loop := a.loops[trunkReceiver]
	a.mu.Unlock()
	now := time.Now()
	loop.obs.SetStaleness(window, func() time.Time { return now })
	now = now.Add(window + time.Second)
	a.sweepAll()

	st := waitAdapt(t, e, 55, "decay", func(st *metrics.AdaptStats) bool { return !st.Active })
	if st.Expired == 0 {
		t.Fatalf("Expired = 0 after sweeping past the window, want > 0")
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
