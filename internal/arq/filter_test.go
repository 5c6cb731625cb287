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

	p := f.Lookup(3)
	if p == nil {
		t.Fatal("Lookup(3) = nil, want buffered")
	}
	frame, err := packet.Marshal(p)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	rt, _, err := packet.Unmarshal(frame)
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
	if f.Delay() != 10*time.Millisecond {
		t.Fatalf("Delay = %v", f.Delay())
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
		if p.Seq != uint64(i) {
			t.Fatalf("release order %v, want sequence order", seqsOf(out))
		}
	}
	if buffered, released := f.Stats(); buffered != 4 || released != 4 {
		t.Fatalf("Stats = (%d, %d), want (4, 4)", buffered, released)
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
	if f.Name() != "jitter" || f.Delay() != time.Millisecond {
		t.Fatalf("defaults = (%q, %v), want (jitter, 1ms)", f.Name(), f.Delay())
	}
}

func seqsOf(ps []*packet.Packet) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.Seq
	}
	return out
}
