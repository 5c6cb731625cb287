package engine

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"rapidware/internal/arq"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
	"rapidware/internal/wireless"
)

// sendNack writes one NACK datagram for session id naming the given missing
// sequence numbers, chunked to the wire format's per-frame bound.
func sendNack(t *testing.T, c *net.UDPConn, id uint32, seqs []uint64) {
	t.Helper()
	for len(seqs) > 0 {
		n := len(seqs)
		if n > packet.MaxNackSeqs {
			n = packet.MaxNackSeqs
		}
		dgram, err := packet.AppendNackDatagram(nil, id, 0, 0, seqs[:n])
		if err != nil {
			t.Fatalf("AppendNackDatagram: %v", err)
		}
		if _, err := c.Write(dgram); err != nil {
			t.Fatalf("Write: %v", err)
		}
		seqs = seqs[n:]
	}
}

// TestEngineARQNackRecovery drives the full NACK loop over the wire at the
// paper's loss regime: an engine session with an arq history stage echoes a
// stream whose deliveries then cross a simulated WaveLAN link losing ~10% of
// frames; the receiver NACKs the gaps and must end up with at least 99% of
// the stream within its NACK budget.
func TestEngineARQNackRecovery(t *testing.T) {
	const (
		id     = 31
		total  = 400
		budget = 5 // receiver gives a sequence up after this many NACKs
	)
	// Paced sends keep the whole stream inside the session (an engine-side
	// drop never reaches the ARQ history, so it would be unrecoverable loss
	// the test is not about).
	e := newTestEngine(t, Config{Chain: "arq"})
	c := dialEngine(t, e)

	// The lossy last hop: every echo is "broadcast" onto the simulated medium
	// and only surviving frames reach the ARQ receiver. Deterministic RNG so
	// the loss pattern is reproducible.
	ch := wireless.NewChannel(wireless.WaveLAN2Mbps())
	if _, err := ch.Attach("station", wireless.Bernoulli{P: 0.10}, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	recv := arq.NewReceiver(budget)

	// deliver routes one echoed frame across the lossy link into the
	// receiver's window.
	deliver := func(frame []byte, round int) {
		if !ch.Broadcast(len(frame))[0].Lost {
			recv.Deliver(packet.FrameSeq(frame), round)
		}
	}
	// drain collects echoes until the socket goes quiet for one timeout.
	drain := func(round int) {
		buf := make([]byte, packet.MaxDatagram)
		for {
			c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			_, frame, err := packet.SplitSessionID(buf[:n])
			if err != nil {
				continue
			}
			if packet.ValidateFrame(frame) != nil || packet.FrameKind(frame) != packet.KindData {
				continue
			}
			deliver(frame, round)
		}
	}

	for seq := uint64(0); seq < total; seq++ {
		sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq), byte(seq >> 8)}})
		if seq%32 == 31 {
			time.Sleep(2 * time.Millisecond) // pace the burst: the client socket must not drop echoes either
		}
	}
	drain(0)
	recv.ExpectUpTo(total)

	// NACK rounds: each round names what is still missing and collects the
	// retransmissions — which cross the same lossy link, so repairs can
	// themselves be lost and re-requested.
	for round := 1; round <= budget+1; round++ {
		missing := recv.Missing()
		if len(missing) == 0 {
			break
		}
		sendNack(t, c, id, missing)
		drain(round)
	}

	if rate := recv.DeliveredRate(); rate < 0.99 {
		delivered, recovered, lost, _ := recv.Stats()
		t.Fatalf("delivered %.4f of the stream (delivered %d recovered %d lost %d), want >= 0.99",
			rate, delivered, recovered, lost)
	}
	delivered, recovered, _, _ := recv.Stats()
	if recovered == 0 {
		t.Fatalf("no packets recovered by NACK (delivered %d) — the lossy link lost nothing?", delivered)
	}
	st := e.Stats()
	if st.Nacks == 0 || st.Retransmits == 0 {
		t.Fatalf("engine counters nacks=%d retransmits=%d, want both > 0", st.Nacks, st.Retransmits)
	}
	// The history stage must surface its own accounting through StageStats'
	// instance, visible via the session snapshot chain.
	sess := e.Session(id)
	if sess == nil {
		t.Fatal("session disappeared")
	}
	hist, ok := sess.Live().Instance("arq").(*arq.SenderFilter)
	if !ok {
		t.Fatal("arq stage instance is not a SenderFilter")
	}
	if _, served, _ := hist.Stats(); served == 0 {
		t.Fatal("history served no retransmissions")
	}
}

// TestEngineLateJoinReplayPrimed checks the replay stage's catch-up path: a
// station that joins a fan-out session mid-stream has its fresh delivery
// branch primed with the trunk's retained history before live traffic
// reaches it.
func TestEngineLateJoinReplayPrimed(t *testing.T) {
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

	const id = 9
	const history = 8
	// The replay depth comfortably exceeds the opening stream so the live
	// frame's admission cannot evict the oldest retained packet.
	e := newTestEngine(t, Config{
		Chain:  "replay=16",
		Fanout: []string{rxA.LocalAddr().String()},
		Branch: "counting",
	})
	c := dialEngine(t, e)

	// Stream the opening seconds to the original member only.
	for seq := uint64(0); seq < history; seq++ {
		sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
	}
	got := 0
	buf := make([]byte, packet.MaxDatagram)
	for got < history {
		rxA.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := rxA.Read(buf)
		if err != nil {
			t.Fatalf("receiver A got %d of %d opening packets: %v", got, history, err)
		}
		if gotID, _, err := packet.SplitSessionID(buf[:n]); err == nil && gotID == id {
			got++
		}
	}

	// A second station joins mid-stream; the next trunk packet reconciles the
	// delivery tree, building (and priming) its branch.
	e.FanoutGroup().Add(rxB.LocalAddr().(*net.UDPAddr).AddrPort())
	sendPacket(t, c, id, &packet.Packet{Seq: history, Kind: packet.KindData, Payload: []byte("live")})

	// The late joiner must see the retained history, not just the live frame.
	seen := make(map[uint64]bool)
	for {
		rxB.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		n, err := rxB.Read(buf)
		if err != nil {
			break
		}
		gotID, frame, err := packet.SplitSessionID(buf[:n])
		if err != nil || gotID != id {
			continue
		}
		if p, _, err := packet.Unmarshal(frame); err == nil {
			seen[p.Seq] = true
		}
	}
	for seq := uint64(0); seq < history; seq++ {
		if !seen[seq] {
			t.Fatalf("late joiner missing replayed seq %d (saw %v)", seq, seen)
		}
	}
	if !seen[history] {
		t.Fatalf("late joiner missing the live frame (saw %v)", seen)
	}

	// The branch accounts its priming.
	var primed uint64
	for _, rx := range e.Session(id).Stats().Receivers {
		primed += rx.Primed
	}
	if primed < history {
		t.Fatalf("Primed = %d across receivers, want >= %d", primed, history)
	}
}

// TestEngineFECToARQEscalation walks the reliability spectrum on one live
// unicast session: moderate loss splices a FEC encoder, and a later
// high-RTT/low-loss report swaps it for an ARQ retransmission history — which
// then actually answers a NACK.
func TestEngineFECToARQEscalation(t *testing.T) {
	const id = 21
	e := newTestEngine(t, Config{Adapt: true})
	c := dialEngine(t, e)

	sendPacket(t, c, id, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: []byte("warm")})
	readPacket(t, c, 2*time.Second)

	// 8% loss on a fast link: proactive parity wins.
	sendReport(t, c, id, packet.Report{HighestSeq: 0, Received: 92, Lost: 8, Window: 100, RTTMillis: 20})
	st := waitAdapt(t, e, id, "fec", func(a *metrics.AdaptStats) bool { return a.Active && a.Mechanism == "fec" })
	if st.N <= st.K {
		t.Fatalf("fec mechanism with code %d/%d", st.N, st.K)
	}

	// 2% loss but a 200ms feedback path: retransmission beats stale retuning.
	sendReport(t, c, id, packet.Report{HighestSeq: 0, Received: 98, Lost: 2, Window: 100, RTTMillis: 200})
	waitAdapt(t, e, id, "arq", func(a *metrics.AdaptStats) bool { return a.Active && a.Mechanism == "arq" })
	if _, ok := e.Session(id).Live().Instance("fec-adapt").(*arq.SenderFilter); !ok {
		t.Fatal("fec-adapt marker does not hold an ARQ history after escalation")
	}

	// The spliced history answers NACKs for traffic that flowed after the swap.
	for seq := uint64(100); seq < 104; seq++ {
		sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
		readPacket(t, c, 2*time.Second)
	}
	sendNack(t, c, id, []uint64{102})
	deadline := time.Now().Add(2 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("retransmission never arrived")
		}
		_, p := readPacket(t, c, 2*time.Second)
		if p.Kind == packet.KindData && p.Seq == 102 {
			break
		}
	}
	if st := e.Stats(); st.Retransmits == 0 {
		t.Fatalf("Retransmits = %d, want > 0", st.Retransmits)
	}

	// A clean fast link de-escalates all the way back to the pure relay.
	sendReport(t, c, id, packet.Report{HighestSeq: 103, Received: 100, Lost: 0, Window: 100, RTTMillis: 20})
	waitAdapt(t, e, id, "clean", func(a *metrics.AdaptStats) bool { return !a.Active && a.Mechanism == "none" })
}

// TestEngineNackAnswersEachSeqOnce pins the NACK amplifier shut: one NACK
// naming the same held sequence number 64 times gets exactly one
// retransmission, and a NACK repeating several numbers gets one per distinct
// number, in first-mention order.
func TestEngineNackAnswersEachSeqOnce(t *testing.T) {
	const id = 33
	e := newTestEngine(t, Config{Chain: "arq"})
	c := dialEngine(t, e)
	for seq := uint64(0); seq < 10; seq++ {
		sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
		readPacket(t, c, 2*time.Second)
	}
	// expect reads the retransmissions of want, in order, then requires the
	// socket to stay quiet.
	expect := func(want ...uint64) {
		t.Helper()
		for _, seq := range want {
			if _, p := readPacket(t, c, 2*time.Second); p.Kind != packet.KindData || p.Seq != seq {
				t.Fatalf("retransmission = kind %d seq %d, want data seq %d", p.Kind, p.Seq, seq)
			}
		}
		c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if n, err := c.Read(make([]byte, packet.MaxDatagram)); err == nil {
			t.Fatalf("extra datagram of %d bytes after the retransmissions of %v", n, want)
		}
	}

	same := make([]uint64, packet.MaxNackSeqs)
	for i := range same {
		same[i] = 3
	}
	sendNack(t, c, id, same)
	expect(3)
	if got := e.Stats().Retransmits; got != 1 {
		t.Fatalf("Retransmits = %d after one NACK naming seq 3 %d times, want 1", got, len(same))
	}

	sendNack(t, c, id, []uint64{5, 3, 5, 42, 3, 7, 5})
	expect(5, 3, 7) // 42 was never sent
	if got := e.Stats().Retransmits; got != 4 {
		t.Fatalf("Retransmits = %d, want 4", got)
	}
}

// TestEngineNackFloodHeldToBudget: the session's pinned peer — an authorized
// requester — floods NACKs that each name every held frame. What it gets
// back is held to its retransmission budget: at most one burst plus one byte
// in arq.RetransmitShare of everything relayed to it. Every named frame is
// either retransmitted or refused, and each refusal is counted.
func TestEngineNackFloodHeldToBudget(t *testing.T) {
	const (
		id      = 34
		held    = 64
		payload = 1200
		nacks   = 50
	)
	e := newTestEngine(t, Config{Chain: "arq"})
	c := dialEngine(t, e)
	seqs := make([]uint64, held)
	for i := range seqs {
		seqs[i] = uint64(i)
		sendPacket(t, c, id, &packet.Packet{Seq: seqs[i], Kind: packet.KindData, Payload: make([]byte, payload)})
		readPacket(t, c, 2*time.Second)
	}
	for range nacks {
		sendNack(t, c, id, seqs)
	}
	waitFor(t, "every named frame answered or refused", func() bool {
		st := e.Stats()
		return st.Retransmits+st.NackRefusals == nacks*held
	})
	st := e.Stats()
	size := packet.SessionIDSize + packet.HeaderSize + payload
	got := st.Retransmits * uint64(size)
	relayed := e.Session(id).Stats().OutBytes
	if limit := arq.RetransmitBurst + relayed/arq.RetransmitShare; got > limit {
		t.Fatalf("%d retransmissions (%d bytes) of %d bytes relayed, budget allows %d", st.Retransmits, got, relayed, limit)
	}
	if st.Retransmits < arq.RetransmitBurst/uint64(size) || st.NackRefusals == 0 {
		t.Fatalf("Retransmits = %d, NackRefusals = %d: want the burst answered and the rest refused", st.Retransmits, st.NackRefusals)
	}
	t.Logf("%d NACKs of %d frames: %d retransmitted, %d refused", nacks, held, st.Retransmits, st.NackRefusals)
}

// TestEngineNackBudgetServesLossyStream: one requester on a stream far faster
// than the paper's links loses one frame in ten and NACKs each loss once, as
// a receiver does. Its repairs come to more than one burst, yet every one is
// answered: the budget grows with the stream it is relayed.
func TestEngineNackBudgetServesLossyStream(t *testing.T) {
	const (
		id      = 35
		frames  = 4000
		lossy   = 10 // one frame in lossy is reported lost
		payload = 1200
	)
	e := newTestEngine(t, Config{Chain: "arq"})
	c := dialEngine(t, e)
	data := make([]byte, payload)
	start := time.Now()
	for seq := uint64(0); seq < frames; seq++ {
		sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: data})
		readPacket(t, c, 2*time.Second)
		if seq%lossy == lossy-1 {
			sendNack(t, c, id, []uint64{seq})
			if _, p := readPacket(t, c, 2*time.Second); p.Seq != seq {
				t.Fatalf("NACK for frame %d answered with frame %d", seq, p.Seq)
			}
		}
	}
	elapsed := time.Since(start)
	st := e.Stats()
	size := uint64(packet.SessionIDSize + packet.HeaderSize + payload)
	if st.Retransmits != frames/lossy || st.NackRefusals != 0 {
		t.Fatalf("Retransmits = %d, NackRefusals = %d: want all %d losses repaired", st.Retransmits, st.NackRefusals, frames/lossy)
	}
	if repaired := st.Retransmits * size; repaired <= arq.RetransmitBurst {
		t.Fatalf("%d bytes repaired fit one burst: the stream's share went untested", repaired)
	}
	t.Logf("%d frames at %.0f Mbit/s, %d repairs (%d bytes), none refused",
		frames, float64(frames*size*8)/elapsed.Seconds()/1e6, st.Retransmits, st.Retransmits*size)
}
