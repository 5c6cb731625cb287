package cache

import (
	"testing"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// runReplay pushes packets through f on a frame chain and returns what comes
// out.
func runReplay(t *testing.T, f *ReplayFilter, in []*packet.Packet) []*packet.Packet {
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

func TestNewReplayFilterValidation(t *testing.T) {
	if _, err := NewReplayFilter("", 0); err == nil {
		t.Fatal("NewReplayFilter(0) succeeded, want error")
	}
	f, err := NewReplayFilter("", 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "replay" || f.Depth() != 4 {
		t.Fatalf("defaults = (%q, %d), want (replay, 4)", f.Name(), f.Depth())
	}
}

func TestReplayFilterRetainsWindowInOrder(t *testing.T) {
	f, err := NewReplayFilter("replay", 4)
	if err != nil {
		t.Fatal(err)
	}
	var in []*packet.Packet
	for seq := uint64(0); seq < 7; seq++ {
		in = append(in, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
	}
	// Non-data frames pass through without entering the window.
	in = append(in, &packet.Packet{Seq: 50, Kind: packet.KindParity, Payload: []byte("p")})
	out := runReplay(t, f, in)
	if len(out) != len(in) {
		t.Fatalf("forwarded %d packets, want %d", len(out), len(in))
	}

	frames := f.Frames()
	if len(frames) != 4 {
		t.Fatalf("retained %d frames, want the window of 4", len(frames))
	}
	// Oldest first: the 4-deep window over seqs 0..6 holds 3,4,5,6.
	for i, frame := range frames {
		p, _, err := packet.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(3 + i); p.Seq != want {
			t.Fatalf("frames[%d].Seq = %d, want %d", i, p.Seq, want)
		}
	}
	if admitted, retained, primes := f.Stats(); admitted != 7 || retained != 4 || primes != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want (7, 4, 1)", admitted, retained, primes)
	}
}

func TestReplayFilterFramesAreCopies(t *testing.T) {
	f, err := NewReplayFilter("", 2)
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, f, []*packet.Packet{{Seq: 0, Kind: packet.KindData, Payload: []byte("orig")}})
	frames := f.Frames()
	if len(frames) != 1 {
		t.Fatalf("retained %d frames, want 1", len(frames))
	}
	frames[0][0] ^= 0xff
	again := f.Frames()
	if p, _, err := packet.Unmarshal(again[0]); err != nil || string(p.Payload) != "orig" {
		t.Fatalf("mutating a returned frame corrupted the retained copy: %v, %v", p, err)
	}
}

func TestReplayFilterEmptyWindowDoesNotCountPrime(t *testing.T) {
	f, err := NewReplayFilter("", 2)
	if err != nil {
		t.Fatal(err)
	}
	if frames := f.Frames(); len(frames) != 0 {
		t.Fatalf("fresh filter retained %d frames", len(frames))
	}
	if _, _, primes := f.Stats(); primes != 0 {
		t.Fatalf("primes = %d after an empty drain, want 0", primes)
	}
}
