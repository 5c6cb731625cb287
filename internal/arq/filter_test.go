package arq

import (
	"testing"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// runPackets pushes a sequence of packets through f on a frame chain,
// closes the chain — which flushes what f holds — and returns every packet
// that came out, in output order.
func runPackets(t *testing.T, f filter.Filter, in []*packet.Packet) []*packet.Packet {
	t.Helper()
	var out []*packet.Packet
	fc := filter.NewFrameChain(func(b *packet.Buf) {
		p, _, err := packet.Unmarshal(b.B)
		b.Release()
		if err != nil {
			t.Errorf("Unmarshal: %v", err)
			return
		}
		out = append(out, p)
	})
	if err := fc.SetInterior([]filter.Filter{f}); err != nil {
		t.Fatal(err)
	}
	for _, p := range in {
		frame, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		b := packet.GetBuf(len(frame))
		copy(b.B, frame)
		if err := fc.Process(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSenderFilterRecordsAndRetransmits(t *testing.T) {
	f := NewSenderFilter("", 8)
	if f.HistoryLimit() != 8 {
		t.Fatalf("HistoryLimit = %d, want 8", f.HistoryLimit())
	}
	var in []*packet.Packet
	for seq := uint64(0); seq < 5; seq++ {
		in = append(in, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
	}
	// Non-data frames pass through but must not enter the history.
	in = append(in, &packet.Packet{Seq: 99, Kind: packet.KindParity, Payload: []byte("p")})
	out := runPackets(t, f, in)
	if len(out) != len(in) {
		t.Fatalf("forwarded %d packets, want %d", len(out), len(in))
	}

	b := f.Lookup(3)
	if b == nil {
		t.Fatal("Lookup(3) = nil, want buffered")
	}
	rt, _, err := packet.Unmarshal(b.B)
	b.Release()
	if err != nil || rt.Seq != 3 || rt.Kind != packet.KindData {
		t.Fatalf("retransmitted frame = %+v, %v", rt, err)
	}
	// The parity frame's sequence number was never admitted.
	if f.Lookup(99) != nil {
		t.Fatal("Lookup(99) != nil for a non-data sequence")
	}
	if tracked, served, misses := f.Stats(); tracked != 5 || served != 1 || misses != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want (5, 1, 1)", tracked, served, misses)
	}
}

func TestSenderFilterRingEviction(t *testing.T) {
	f := NewSenderFilter("arq", 4)
	var in []*packet.Packet
	for seq := uint64(0); seq < 10; seq++ {
		in = append(in, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
	}
	runPackets(t, f, in)
	// Seqs 0..5 were overwritten by 6..9 in the 4-deep ring.
	for seq := uint64(0); seq < 6; seq++ {
		if f.Lookup(seq) != nil {
			t.Fatalf("Lookup(%d) != nil after eviction", seq)
		}
	}
	for seq := uint64(6); seq < 10; seq++ {
		if f.Lookup(seq) == nil {
			t.Fatalf("Lookup(%d) = nil, want buffered", seq)
		}
	}
}

func TestSenderFilterVisitsWindowInOrder(t *testing.T) {
	f := NewSenderFilter("replay", 4)
	var in []*packet.Packet
	for seq := uint64(0); seq < 7; seq++ {
		in = append(in, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
	}
	// Non-data frames pass through without entering the window.
	in = append(in, &packet.Packet{Seq: 50, Kind: packet.KindParity, Payload: []byte("p")})
	if out := runPackets(t, f, in); len(out) != len(in) {
		t.Fatalf("forwarded %d packets, want %d", len(out), len(in))
	}
	// Oldest first: the 4-deep window over seqs 0..6 holds 3,4,5,6.
	if got := visited(t, f); len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("visited seqs %v, want [3 4 5 6]", got)
	}
	if tracked, _, _ := f.Stats(); tracked != 7 {
		t.Fatalf("tracked = %d, want 7", tracked)
	}
}

func TestSenderFilterVisitSkipsSlotsOutsideWindow(t *testing.T) {
	f := NewSenderFilter("", 4)
	var in []*packet.Packet
	for _, seq := range []uint64{100, 101, 2} { // the stream restarted at 2
		in = append(in, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
	}
	runPackets(t, f, in)
	// 100 and 101 sit in slots the restart never overwrote, but outside the
	// window of the four sequence numbers ending at 2.
	if got := visited(t, f); len(got) != 1 || got[0] != 2 {
		t.Fatalf("visited seqs %v, want [2]", got)
	}
	if empty := visited(t, NewSenderFilter("", 2)); len(empty) != 0 {
		t.Fatalf("a fresh history visited %v", empty)
	}
}

func TestSenderFilterLookupReturnsCopies(t *testing.T) {
	f := NewSenderFilter("", 2)
	runPackets(t, f, []*packet.Packet{{Seq: 0, Kind: packet.KindData, Payload: []byte("orig")}})
	b := f.Lookup(0)
	if b == nil {
		t.Fatal("Lookup(0) = nil, want buffered")
	}
	b.B[packet.HeaderSize] ^= 0xff
	b.Release()
	again := f.Lookup(0)
	defer again.Release()
	if string(again.B[packet.HeaderSize:]) != "orig" {
		t.Fatalf("mutating a returned frame corrupted the retained copy: %q", again.B[packet.HeaderSize:])
	}
	// The copy carries session-ID headroom, as a stage-built frame does.
	if !again.Unshift(packet.SessionIDSize) {
		t.Fatal("Lookup's frame has no session-ID headroom")
	}
}

// TestSenderFilterConcurrentLookupVisit reads the history from other
// goroutines while frames are admitted — the engine answers NACKs and primes
// late joiners off the goroutine running the chain. Run it under -race.
func TestSenderFilterConcurrentLookupVisit(t *testing.T) {
	f := NewSenderFilter("", 16)
	fc := filter.NewFrameChain(func(b *packet.Buf) { b.Release() })
	if err := fc.SetInterior([]filter.Filter{f}); err != nil {
		t.Fatal(err)
	}
	const frames = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(0); seq < frames; seq++ {
			frame, err := packet.Marshal(&packet.Packet{Seq: seq, Kind: packet.KindData, Payload: make([]byte, 1+seq%64)})
			if err != nil {
				t.Error(err)
				return
			}
			b := packet.GetFrameBuf(len(frame))
			copy(b.B, frame)
			if err := fc.Process(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	readers := make(chan struct{})
	for r := 0; r < 2; r++ {
		go func() {
			defer func() { readers <- struct{}{} }()
			for seq := uint64(0); ; seq = (seq + 7) % frames {
				select {
				case <-done:
					return
				default:
				}
				if b := f.Lookup(seq); b != nil {
					if got := packet.FrameSeq(b.B); got != seq {
						t.Errorf("Lookup(%d) returned seq %d", seq, got)
					}
					b.Release()
				}
				prev := int64(-1)
				f.Visit(func(frame []byte) {
					if got := int64(packet.FrameSeq(frame)); got <= prev {
						t.Errorf("Visit went from seq %d to %d, want oldest first", prev, got)
					}
					prev = int64(packet.FrameSeq(frame))
				})
			}
		}()
	}
	<-done
	<-readers
	<-readers
	if got := visited(t, f); len(got) != 16 || got[15] != frames-1 {
		t.Fatalf("final window %v, want the last 16 seqs", got)
	}
}

// visited returns the sequence numbers Visit walks, in order.
func visited(t *testing.T, f *SenderFilter) []uint64 {
	t.Helper()
	var seqs []uint64
	f.Visit(func(frame []byte) {
		if err := packet.ValidateFrame(frame); err != nil {
			t.Errorf("Visit handed a bad frame: %v", err)
		}
		seqs = append(seqs, packet.FrameSeq(frame))
	})
	return seqs
}

func TestSenderFilterDefaults(t *testing.T) {
	f := NewSenderFilter("", 0)
	if f.Name() != "arq" {
		t.Fatalf("Name = %q, want arq", f.Name())
	}
	if f.HistoryLimit() != DefaultHistory {
		t.Fatalf("HistoryLimit = %d, want DefaultHistory %d", f.HistoryLimit(), DefaultHistory)
	}
}

func TestJitterFilterReordersIntoSequence(t *testing.T) {
	f := NewJitterFilter("", 10*time.Millisecond)
	if f.delay != 10*time.Millisecond {
		t.Fatalf("delay = %v", f.delay)
	}
	// Deliver out of order — as a late ARQ repair would arrive — inside one
	// hold window.
	in := []*packet.Packet{
		{Seq: 2, Kind: packet.KindData, Payload: []byte("c")},
		{Seq: 0, Kind: packet.KindData, Payload: []byte("a")},
		{Seq: 3, Kind: packet.KindData, Payload: []byte("d")},
		{Seq: 1, Kind: packet.KindData, Payload: []byte("b")},
	}
	out := runPackets(t, f, in)
	if len(out) != len(in) {
		t.Fatalf("released %d packets, want %d", len(out), len(in))
	}
	for i, p := range out {
		if p.Seq != uint64(i) || p.Kind != packet.KindData || string(p.Payload) != string(rune('a'+i)) {
			t.Fatalf("released %v (seq %d, payload %q) at %d, want data seq %d %q in sequence order",
				seqsOf(out), p.Seq, p.Payload, i, i, string(rune('a'+i)))
		}
	}
}

func TestJitterFilterPassesNonDataImmediately(t *testing.T) {
	// A long delay: the parity frame must pass at once, ahead of the data
	// frame the closing flush releases.
	f := NewJitterFilter("jitter", time.Second)
	in := []*packet.Packet{
		{Seq: 0, Kind: packet.KindData, Payload: []byte("held")},
		{Seq: 1, Kind: packet.KindParity, Payload: []byte("through")},
	}
	out := runPackets(t, f, in)
	if len(out) != 2 {
		t.Fatalf("got %d packets, want 2", len(out))
	}
	if out[0].Kind != packet.KindParity {
		t.Fatalf("first release kind = %v, want the pass-through parity frame", out[0].Kind)
	}
	// The data frame arrived via the closing flush, well before the 1s hold.
	if out[1].Kind != packet.KindData || out[1].Seq != 0 {
		t.Fatalf("second release = %+v, want the drained data frame", out[1])
	}
}

func TestJitterFilterDefaultDelay(t *testing.T) {
	f := NewJitterFilter("", 0)
	if f.Name() != "jitter" || f.delay != time.Millisecond {
		t.Fatalf("defaults = (%q, %v), want (jitter, 1ms)", f.Name(), f.delay)
	}
}

func seqsOf(ps []*packet.Packet) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.Seq
	}
	return out
}
