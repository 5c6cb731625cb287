package engine

import (
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// openEchoSession opens one engine session over its own UDP socket and
// verifies the relay path before handing the socket back.
func openEchoSession(t *testing.T, e *Engine, id uint32) *net.UDPConn {
	t.Helper()
	c := dialEngine(t, e)
	sendPacket(t, c, id, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: []byte("open")})
	gotID, _ := readPacket(t, c, 2*time.Second)
	if gotID != id {
		t.Fatalf("echo for session %d, want %d", gotID, id)
	}
	return c
}

func TestEngineRecomposeSession(t *testing.T) {
	e := newTestEngine(t, Config{Chain: "counting"})
	c := openEchoSession(t, e, 7)

	// Full rewrite: the counting instance survives (same kind+arg), a
	// checksum stage joins.
	chain, err := e.EditSession(7, "", compose.Replace("checksum,counting"))
	if err != nil {
		t.Fatalf("EditSession(Replace): %v", err)
	}
	if chain != "checksum,counting" {
		t.Fatalf("chain after recompose = %q", chain)
	}
	// Traffic still relays, and the per-stage view reflects the new plan.
	sendPacket(t, c, 7, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("post")})
	readPacket(t, c, 2*time.Second)
	st := e.Session(7).Stats()
	if st.Chain != "checksum,counting" || len(st.Stages) != 2 {
		t.Fatalf("session stats chain = %q stages %+v", st.Chain, st.Stages)
	}
	if st.Stages[0].Kind != "checksum" || !st.Stages[0].Active || st.Stages[0].Name == "" {
		t.Fatalf("stage 0 = %+v", st.Stages[0])
	}

	// Single-stage operations address plan positions.
	if chain, err = e.EditSession(7, "", compose.Insert("delay=1ms", 1)); err != nil || chain != "checksum,delay=1ms,counting" {
		t.Fatalf("EditSession(Insert) = %q, %v", chain, err)
	}
	if chain, err = e.EditSession(7, "", compose.Move(1, 0)); err != nil || chain != "delay=1ms,checksum,counting" {
		t.Fatalf("EditSession(Move) = %q, %v", chain, err)
	}
	if chain, err = e.EditSession(7, "", compose.Remove("delay")); err != nil || chain != "checksum,counting" {
		t.Fatalf("EditSession(Remove) by kind = %q, %v", chain, err)
	}
	if chain, err = e.EditSession(7, "", compose.Remove("0")); err != nil || chain != "counting" {
		t.Fatalf("EditSession(Remove) by position = %q, %v", chain, err)
	}

	// Errors: unknown session, unknown receiver, invalid stage, bad selector.
	if _, err := e.EditSession(404, "", compose.Replace("")); err == nil {
		t.Fatal("recompose of an unknown session succeeded")
	}
	if _, err := e.EditSession(7, "127.0.0.1:9", compose.Replace("")); err == nil {
		t.Fatal("branch recompose on a unicast session succeeded")
	}
	if _, err := e.EditSession(7, "", compose.Insert("bogus", 0)); err == nil {
		t.Fatal("insert of an unknown stage kind succeeded")
	}
	if _, err := e.EditSession(7, "", compose.Insert("counting,checksum", 0)); err == nil {
		t.Fatal("insert of a multi-stage spec succeeded")
	}
	if _, err := e.EditSession(7, "", compose.Replace("fec-adapt")); err == nil {
		t.Fatal("marker accepted on a non-adaptive trunk")
	}
}

// TestEngineRecomposeRejectsStaticFECBesideMarker guards the constructor's
// parity-of-parity invariant on the live path: a recompose may not put a
// static fec-encode next to the adaptation plane's fec-adapt marker.
func TestEngineRecomposeRejectsStaticFECBesideMarker(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	openEchoSession(t, e, 3)
	if _, err := e.EditSession(3, "", compose.Replace("fec-adapt,fec-encode=6/4")); err == nil {
		t.Fatal("live recompose accepted fec-encode beside the fec-adapt marker")
	}
	// The injected marker is preserved by a legal rewrite, so adaptation
	// keeps working after operator recompositions.
	chain, err := e.EditSession(3, "", compose.Replace("fec-adapt,counting"))
	if err != nil {
		t.Fatal(err)
	}
	if chain != "fec-adapt,counting" {
		t.Fatalf("chain = %q", chain)
	}
}

// TestEngineRecomposeUnderLoad hammers live sessions spread across shards
// with concurrent recompose operations while each session carries traffic —
// the race-detector workout for the composition plane's splice path.
func TestEngineRecomposeUnderLoad(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 4, Chain: "counting"})
	const (
		sessions   = 8
		duration   = 400 * time.Millisecond
		recomposer = 2 // concurrent recomposers per session
	)
	specs := []string{
		"counting",
		"counting,checksum",
		"checksum,null,counting",
		"",
		"null",
	}

	conns := make([]*net.UDPConn, sessions)
	for i := range conns {
		conns[i] = openEchoSession(t, e, uint32(i+1))
	}

	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		sent      [sessions]atomic.Uint64
		recomps   atomic.Uint64
		recompErr atomic.Uint64
	)
	// Traffic: every session keeps sending and draining echoes.
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := conns[i]
			id := uint32(i + 1)
			buf := make([]byte, packet.MaxDatagram)
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
				sent[i].Add(1)
				c.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
				for {
					if _, err := c.Read(buf); err != nil {
						break
					}
				}
			}
		}(i)
	}
	// Recomposers: concurrent full rewrites of every session's trunk.
	for i := 0; i < sessions; i++ {
		for r := 0; r < recomposer; r++ {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				id := uint32(i + 1)
				for n := r; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := e.EditSession(id, "", compose.Replace(specs[n%len(specs)])); err != nil {
						// A session evicted mid-storm is tolerable churn, not a
						// composition bug; anything else fails the test.
						if !strings.Contains(err.Error(), "unknown session") {
							recompErr.Add(1)
							t.Errorf("session %d recompose: %v", id, err)
							return
						}
						continue
					}
					recomps.Add(1)
				}
			}(i, r)
		}
	}
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if recompErr.Load() > 0 {
		t.Fatalf("%d recompose errors under load", recompErr.Load())
	}
	if recomps.Load() < sessions*recomposer {
		t.Fatalf("only %d recompositions completed", recomps.Load())
	}

	// Every session survived the storm and still relays after one final
	// deterministic recompose.
	for i := 0; i < sessions; i++ {
		id := uint32(i + 1)
		if chain, err := e.EditSession(id, "", compose.Replace("counting")); err != nil || chain != "counting" {
			t.Fatalf("session %d final recompose = %q, %v", id, chain, err)
		}
		sendPacket(t, conns[i], id, &packet.Packet{Seq: 1 << 30, Kind: packet.KindData, Payload: []byte("fin")})
		// Stale echoes from the storm may still be queued on the socket;
		// drain until the fin comes back.
		deadline := time.Now().Add(2 * time.Second)
		for {
			gotID, p := readPacket(t, conns[i], time.Until(deadline))
			if gotID == id && p.Seq == 1<<30 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %d dead after recompose storm", id)
			}
		}
	}
}

// TestEngineRecomposeVsResponderRetune interleaves control-plane branch
// recompositions with the member loop's own feedback-driven retunes on a
// fan-out receiver, while SessionStats polls throughout: both writers move
// the member under the tree's lock, serialized per receiver by the loop, and
// the stats read the loop's state under that same lock, so nothing may
// corrupt the membership or deadlock.
func TestEngineRecomposeVsResponderRetune(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	e := newTestEngine(t, Config{
		Adapt:  true,
		Branch: "fec-adapt,thin=1",
		Fanout: []string{rx.LocalAddr().String()},
	})
	c := dialEngine(t, e)
	const id = 11
	sendPacket(t, c, id, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: []byte("prime")})
	rx.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := rx.Read(make([]byte, packet.MaxDatagram)); err != nil {
		t.Fatalf("branch prime: %v", err)
	}
	receiver := rx.LocalAddr().(*net.UDPAddr).AddrPort().String()

	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	// Feedback storm: alternating lossy and clean reports drive the member's
	// loop through cohort moves on the shard reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		engAddr := e.LocalAddr().(*net.UDPAddr)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			rep := packet.Report{Received: 100, Window: 100}
			switch n % 3 {
			case 1:
				rep = packet.Report{Received: 90, Lost: 10, Window: 100}
			case 2:
				rep = packet.Report{Received: 70, Lost: 30, Window: 100}
			}
			rep.HighestSeq = uint64(n)
			dgram, err := packet.AppendReportDatagram(nil, id, 0, 0, rep)
			if err != nil {
				t.Errorf("report: %v", err)
				return
			}
			if _, err := rx.WriteToUDP(dgram, engAddr); err != nil {
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	// Branch recomposer: rewrites the tail, sometimes removing the marker
	// (sending the loop dormant) and restoring it again.
	branchSpecs := []string{
		"fec-adapt,thin=1",
		"thin=1,fec-adapt",
		"fec-adapt",
		"thin=1", // marker gone: the loop must go dormant, not fail
		"fec-adapt,null",
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.EditSession(id, receiver, compose.Replace(branchSpecs[n%len(branchSpecs)])); err != nil {
				t.Errorf("branch recompose: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Stats poller: holds the tree's lock while it reads the member's loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for range e.SessionStats {
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Trunk traffic keeps the trunk and the cohort tails busy throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
			time.Sleep(200 * time.Microsecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Settle on a marker-bearing tail and verify the loop still closes: a
	// lossy report upgrades the branch, a clean one releases it.
	if _, err := e.EditSession(id, receiver, compose.Replace("fec-adapt,thin=1")); err != nil {
		t.Fatalf("final branch recompose: %v", err)
	}
	// On a loaded host a single report can be lost to a full socket buffer
	// after the storm, so each is re-sent until it lands.
	reportUntil(t, rx, e, id, packet.Report{HighestSeq: 1 << 20, Received: 90, Lost: 10, Window: 100}, receiver, "post-storm upgrade",
		func(rs metrics.ReceiverStats) bool { return rs.Active && rs.N == 8 && rs.K == 4 })
	reportUntil(t, rx, e, id, packet.Report{HighestSeq: 1 << 21, Received: 100, Lost: 0, Window: 100}, receiver, "post-storm release",
		func(rs metrics.ReceiverStats) bool { return !rs.Active && rs.N == 1 })
	st := e.Session(id).Stats()
	if len(st.Receivers) != 1 || st.Receivers[0].Chain != "fec-adapt,thin=1" {
		t.Fatalf("final branch plan = %+v", st.Receivers)
	}
}

// TestSessionRepairsSurviveRecomposeAndPark counts FEC repairs across every
// way a session's decoder stage can be replaced: recomposed away and back,
// and parked and unparked. Each decoder adds its repairs to the session's
// counter block as it makes them, so Stats keeps counting with no record of
// the decoders it no longer has.
func TestSessionRepairsSurviveRecomposeAndPark(t *testing.T) {
	e, _ := newSimEngine(t, Config{Chain: "fec-decode"})
	peer := netip.MustParseAddrPort("10.9.0.3:4000")
	s, err := e.openSession(3, peer)
	if err != nil {
		t.Fatal(err)
	}
	// repairTwo delivers two (6,4) groups that lost data frame 1 each.
	repairTwo := func() {
		encodeGroups(t, s, fec.Params{K: 4, N: 6}, 2, func(b *packet.Buf) {
			if _, index, _, _ := packet.FrameBlock(b.B[packet.SessionIDSize:]); index == 1 {
				b.Release()
				return
			}
			s.deliver(b, peer)
		})
	}
	check := func(step string, want uint64) {
		t.Helper()
		if got := s.Stats().Repairs; got != want {
			t.Fatalf("%s: Stats().Repairs = %d, want %d", step, got, want)
		}
	}
	repairTwo()
	check("first decoder", 2)
	for _, plan := range []string{"counting", "fec-decode"} {
		if _, err := e.EditSession(3, "", compose.Replace(plan)); err != nil {
			t.Fatal(err)
		}
		check("recomposed to "+plan, 2)
	}
	repairTwo()
	check("second decoder", 4)
	if !s.park() {
		t.Fatal("session did not park")
	}
	check("parked", 4)
	repairTwo() // the first datagram unparks
	check("unparked decoder", 6)
}
