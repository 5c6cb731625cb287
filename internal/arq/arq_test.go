package arq

import (
	"math/rand"
	"testing"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

func TestReceiverTracksGapsAndRecovery(t *testing.T) {
	r := NewReceiver(3)
	// Packets 0,1,3 arrive; 2 is missing.
	for _, seq := range []uint64{0, 1, 3} {
		if fresh := r.Deliver(seq, 0); !fresh {
			t.Fatalf("packet %d reported as duplicate", seq)
		}
	}
	missing := r.Missing()
	if len(missing) != 1 || missing[0] != 2 {
		t.Fatalf("Missing = %v, want [2]", missing)
	}
	// Duplicate delivery is reported as such.
	if r.Deliver(1, 0) {
		t.Fatal("duplicate reported as fresh")
	}
	// The retransmission arrives on round 1.
	if !r.Deliver(2, 1) {
		t.Fatal("retransmission not accepted")
	}
	delivered, recovered, lost, meanRounds := r.Stats()
	if delivered != 4 || recovered != 1 || lost != 0 {
		t.Fatalf("Stats = %d/%d/%d", delivered, recovered, lost)
	}
	if meanRounds != 1 {
		t.Fatalf("meanRepairRounds = %v", meanRounds)
	}
	if r.DeliveredRate() != 1 {
		t.Fatalf("DeliveredRate = %v", r.DeliveredRate())
	}
}

func TestReceiverGivesUpAfterMaxNACKs(t *testing.T) {
	r := NewReceiver(2)
	r.ExpectUpTo(3)
	// Packet 1 never arrives; after two NACK rounds it is abandoned.
	if got := len(r.Missing()); got != 3 {
		t.Fatalf("round 1 missing = %d, want 3", got)
	}
	if got := len(r.Missing()); got != 3 {
		t.Fatalf("round 2 missing = %d, want 3", got)
	}
	if got := len(r.Missing()); got != 0 {
		t.Fatalf("round 3 missing = %d, want 0 (budget exhausted)", got)
	}
	delivered, _, lost, _ := r.Stats()
	if delivered != 0 || lost != 3 {
		t.Fatalf("Stats = %d delivered %d lost", delivered, lost)
	}
	if r.DeliveredRate() != 0 {
		t.Fatalf("DeliveredRate = %v", r.DeliveredRate())
	}
}

func TestReceiverDefaults(t *testing.T) {
	r := NewReceiver(0)
	if r.maxNACKs != 3 {
		t.Fatalf("default maxNACKs = %d", r.maxNACKs)
	}
	if r.DeliveredRate() != 1 {
		t.Fatal("empty receiver should report rate 1")
	}
}

// TestEndToEndRepairOverLossyTransmit simulates the full NACK loop: the
// sender is a frame chain over a SenderFilter whose sink is a lossy transmit,
// and every NACKed sequence number is retransmitted from the filter's
// history over the same transmit. All packets must eventually be delivered
// when the NACK budget is generous and the loss moderate.
func TestEndToEndRepairOverLossyTransmit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := NewReceiver(10)
	round := 0
	transmit := func(b *packet.Buf) {
		if rng.Float64() >= 0.3 { // else lost in the air
			r.Deliver(packet.FrameSeq(b.B), round)
		}
		b.Release()
	}
	history := NewSenderFilter("", 1024)
	sender := filter.NewFrameChain(transmit)
	if err := sender.SetInterior([]filter.Filter{history}); err != nil {
		t.Fatal(err)
	}
	const total = 500
	for i := 0; i < total; i++ {
		frame, err := packet.Marshal(&packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		b := packet.GetFrameBuf(len(frame))
		copy(b.B, frame)
		if err := sender.Process(b); err != nil {
			t.Fatal(err)
		}
	}
	r.ExpectUpTo(total)
	for round = 1; round <= 10; round++ {
		missing := r.Missing()
		if len(missing) == 0 {
			break
		}
		for _, seq := range missing {
			b := history.Lookup(seq)
			if b == nil {
				t.Fatalf("seq %d left the history", seq)
			}
			transmit(b)
		}
	}
	delivered, recovered, lost, meanRounds := r.Stats()
	if lost != 0 {
		t.Fatalf("lost %d packets despite generous NACK budget", lost)
	}
	if delivered != total {
		t.Fatalf("delivered = %d, want %d", delivered, total)
	}
	if recovered == 0 {
		t.Fatal("no packets recovered at 30%% loss — loss injection broken")
	}
	if meanRounds < 1 {
		t.Fatalf("meanRepairRounds = %v, want >= 1", meanRounds)
	}
	if tracked, served, _ := history.Stats(); tracked != total || served == 0 {
		t.Fatalf("history tracked %d served %d, want %d tracked and some served", tracked, served, total)
	}
}
