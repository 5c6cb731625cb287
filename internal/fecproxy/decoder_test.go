package fecproxy

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"testing"

	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
	"rapidware/internal/race"
)

// encodeFrames encodes groups of k payloads of the given size under code
// params and returns each group's n marshaled shares.
func encodeFrames(tb testing.TB, params fec.Params, groups, size int, seed int64) [][][]byte {
	tb.Helper()
	coder, err := fec.CoderFor(params)
	if err != nil {
		tb.Fatal(err)
	}
	enc := fec.NewBlockEncoder(coder, 1)
	rng := rand.New(rand.NewSource(seed))
	var out [][][]byte
	for len(out) < groups {
		payload := make([]byte, size)
		rng.Read(payload)
		shares, err := enc.Add(payload)
		if err != nil {
			tb.Fatal(err)
		}
		if shares == nil {
			continue
		}
		frames := make([][]byte, len(shares))
		for i, p := range shares {
			if frames[i], err = packet.Marshal(p); err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, frames)
	}
	return out
}

// receiveBuf copies frame to the front of a receive-sized pooled buffer, the
// way the engine's reader hands a datagram's frame to a session chain.
func receiveBuf(frame []byte) *packet.Buf {
	b := packet.GetBuf(packet.MaxDatagram)
	b.B = b.B[:copy(b.B, frame)]
	return b
}

// transcodeFixture is the fec-transcode workload's chain in-process:
// fec-decode,fec-encode=6/4 on a FrameChain, fed (12,8) groups of 1200-byte
// payloads off a seeded bursty channel (~5% loss, mean burst 2), one group per
// step under a fresh group number, each share in a receive-sized buffer.
type transcodeFixture struct {
	fc     *filter.FrameChain
	dec    *DecoderFilter
	groups [][][]byte
	erased [][]bool // per step mod len: which shares the channel erased
	next   uint32
	out    int
}

func newTranscodeFixture(tb testing.TB) *transcodeFixture {
	tb.Helper()
	uplink := fec.Params{K: 8, N: 12}
	f := &transcodeFixture{dec: NewDecoderFilter("", nil, nil), groups: encodeFrames(tb, uplink, 16, 1200, 1)}
	enc, err := NewEncoderFilter("", fec.Params{K: 4, N: 6}, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	f.fc = filter.NewFrameChain(func(b *packet.Buf) { f.out++; b.Release() })
	if err := f.fc.SetInterior([]filter.Filter{f.dec, enc}); err != nil {
		tb.Fatal(err)
	}
	// A two-state channel: good -> bad at 1/38, bad -> good at 1/2, and
	// everything sent in the bad state is lost.
	rng := rand.New(rand.NewSource(1))
	bad := false
	for i := 0; i < 256; i++ {
		erased := make([]bool, uplink.N)
		for j := range erased {
			if bad {
				bad = rng.Intn(2) != 0
			} else {
				bad = rng.Intn(38) == 0
			}
			erased[j] = bad
		}
		f.erased = append(f.erased, erased)
	}
	return f
}

// step sends the next group through the chain.
func (f *transcodeFixture) step(tb testing.TB) {
	erased := f.erased[int(f.next)%len(f.erased)]
	for i, frame := range f.groups[int(f.next)%len(f.groups)] {
		if erased[i] {
			continue
		}
		b := receiveBuf(frame)
		binary.BigEndian.PutUint32(b.B[16:], f.next)
		if err := f.fc.Process(b); err != nil {
			tb.Fatal(err)
		}
	}
	f.next++
}

// BenchmarkFECTranscodeChain measures fec-decode,fec-encode=6/4 per (12,8)
// uplink group. TestFECTranscodeChainAllocs holds it allocation-free.
func BenchmarkFECTranscodeChain(b *testing.B) {
	f := newTranscodeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.step(b)
	}
}

func TestFECTranscodeChainAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := newTranscodeFixture(t)
	for i := 0; i < 256; i++ { // one pass of the channel: fills the ring and the reused buffers
		f.step(t)
	}
	if n := testing.AllocsPerRun(512, func() { f.step(t) }); n != 0 {
		t.Fatalf("%v allocs/group, want 0", n)
	}
	_, repaired, _, dropped := f.dec.Stats()
	if repaired == 0 || dropped != 0 || f.out == 0 {
		t.Fatalf("repaired %d, dropped %d, delivered %d: want repairs, no drops, output", repaired, dropped, f.out)
	}
}

// TestDecoderHoldsNoSharesAfterLeaving takes a decoder out of a live chain
// mid-group, by a splice and by closing the chain: the shares it held for a
// repair are released, and nothing is emitted for them.
func TestDecoderHoldsNoSharesAfterLeaving(t *testing.T) {
	group := encodeFrames(t, fec.Params{K: 4, N: 6}, 1, 64, 2)[0]
	for _, leave := range []string{"splice-out", "close"} {
		t.Run(leave, func(t *testing.T) {
			dec := NewDecoderFilter("", nil, nil)
			enc, err := NewEncoderFilter("", fec.Params{K: 2, N: 3}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			fc := filter.NewFrameChain(func(b *packet.Buf) { delivered++; b.Release() })
			if err := fc.SetInterior([]filter.Filter{dec, enc}); err != nil {
				t.Fatal(err)
			}
			for _, frame := range [][]byte{group[0], group[4], group[2]} {
				if err := fc.Process(receiveBuf(frame)); err != nil {
					t.Fatal(err)
				}
			}
			if held := dec.Held(); held != 3 {
				t.Fatalf("decoder holds %d shares mid-group, want 3", held)
			}
			if leave == "close" {
				err = fc.Close()
			} else {
				err = fc.SetInterior([]filter.Filter{enc})
			}
			if err != nil {
				t.Fatal(err)
			}
			if held := dec.Held(); held != 0 || dec.Running() {
				t.Fatalf("after %s: decoder holds %d shares, running %v", leave, held, dec.Running())
			}
			// 2 data frames in: one (3,2) group out, nothing flushed for the
			// decoder's held shares.
			if delivered != 3 {
				t.Fatalf("delivered %d frames, want 3", delivered)
			}
		})
	}
}

// TestDecoderRefusedShareIsCountedDrop sends a duplicate and a share whose
// code disagrees with its group's: each is a bad frame the stage's OnDrop
// hook counts, and the chain carries on.
func TestDecoderRefusedShareIsCountedDrop(t *testing.T) {
	group := encodeFrames(t, fec.Params{K: 4, N: 6}, 1, 32, 3)[0]
	mismatched := append([]byte(nil), group[5]...)
	mismatched[21], mismatched[22] = 3, 6 // k=3: index 5 is still parity
	dec := NewDecoderFilter("", nil, nil)
	drops := 0
	dec.OnDrop(func() { drops++ })
	delivered := 0
	fc := filter.NewFrameChain(func(b *packet.Buf) { delivered++; b.Release() })
	if err := fc.SetInterior([]filter.Filter{dec}); err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{group[0], group[0], mismatched, group[1], group[4], group[5]} {
		if err := fc.Process(receiveBuf(frame)); err != nil {
			t.Fatal(err)
		}
	}
	received, repaired, forwarded, dropped := dec.Stats()
	if drops != 2 || dropped != 2 || fc.Err() != nil {
		t.Fatalf("drops %d, dropped %d, chain error %v; want 2, 2, nil", drops, dropped, fc.Err())
	}
	if received != 3 || repaired != 2 || forwarded != 4 || delivered != 4 {
		t.Fatalf("received %d repaired %d forwarded %d delivered %d, want 3/2/4/4", received, repaired, forwarded, delivered)
	}
}

// TestAdaptiveStreamDecodableByStandardDecoder changes the code mid-stream
// the way the adaptation plane does — a fresh encoder with the new code is
// spliced in for the old one, and every encoder numbers its groups from the
// stream's one counter — and checks that the ordinary decoder delivers every
// payload exactly once through a hop that loses data frame 0 of every group,
// and adds each repair to the counter it was given. The last encoder returns
// to the first one's code: with groups numbered from 0 again, the decoder
// would refuse its shares as duplicates.
func TestAdaptiveStreamDecodableByStandardDecoder(t *testing.T) {
	var groups atomic.Uint32
	var repairs atomic.Uint64
	dec := NewDecoderFilter("", nil, &repairs)
	lossy := filter.NewFrame("drop-index-0", func(b *packet.Buf, emit func(*packet.Buf)) error {
		if _, index, _, _ := packet.FrameBlock(b.B); index == 0 && packet.FrameKind(b.B) == packet.KindData {
			b.Release()
			return nil
		}
		emit(b)
		return nil
	}, nil)
	seen := make(map[string]int)
	fc := filter.NewFrameChain(func(b *packet.Buf) {
		seen[string(b.B[packet.HeaderSize:])]++
		b.Release()
	})
	payloads := makePayloads(48, 12)
	for i, code := range []fec.Params{{K: 4, N: 6}, {K: 4, N: 8}, {K: 4, N: 6}} {
		enc, err := NewEncoderFilter("", code, 1, &groups)
		if err != nil {
			t.Fatal(err)
		}
		if err := fc.SetInterior([]filter.Filter{enc, lossy, dec}); err != nil {
			t.Fatal(err)
		}
		for j, pl := range payloads[i*16 : (i+1)*16] {
			frame, err := packet.Marshal(&packet.Packet{Seq: uint64(i*16 + j), Kind: packet.KindData, Payload: pl})
			if err != nil {
				t.Fatal(err)
			}
			if err := fc.Process(receiveBuf(frame)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	for _, pl := range payloads {
		if seen[string(pl)] != 1 {
			t.Fatalf("payload %q delivered %d times, want once", pl, seen[string(pl)])
		}
	}
	_, repaired, _, dropped := dec.Stats()
	if repaired != 12 || repairs.Load() != repaired || dropped != 0 || groups.Load() != 12 {
		t.Fatalf("repaired %d, counted %d, dropped %d, groups numbered %d; want 12, 12, 0, 12",
			repaired, repairs.Load(), dropped, groups.Load())
	}
}
