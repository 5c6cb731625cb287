package compose

import (
	"math/rand"
	"testing"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// TestStagesDropNonFrames feeds each stage body that reads header fields what
// a raw byte stream can put in front of it: a buffer shorter than a header
// and a chunk that is not a frame at all. Each must refuse them as bad frames
// — dropped and counted — never panic or fail the chain, which still takes a
// real frame afterwards.
func TestStagesDropNonFrames(t *testing.T) {
	stages := map[string]func(*testing.T) filter.Filter{}
	for _, spec := range []string{"arq", "replay=8", "thin=1", "thin=3", "transcode=2", "mono", "compress", "decompress", "jitter=1", "fec-encode=6/4", "fec-decode"} {
		stages[spec] = func(t *testing.T) filter.Filter { return buildPlan(t, spec, frozen)[0] }
	}
	chunk := make([]byte, 100)
	rand.New(rand.NewSource(3)).Read(chunk)
	// A control frame, which none of them may count as a drop.
	good, err := packet.Marshal(&packet.Packet{Seq: 1, Kind: packet.KindControl, Payload: []byte("ok")})
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range stages {
		t.Run(name, func(t *testing.T) {
			f := build(t)
			drops := 0
			f.(interface{ OnDrop(func()) }).OnDrop(func() { drops++ })
			fc := filter.NewFrameChain(func(b *packet.Buf) { b.Release() })
			if err := fc.SetInterior([]filter.Filter{f}); err != nil {
				t.Fatal(err)
			}
			for _, in := range [][]byte{{'R', 'W', 1}, chunk, good} {
				b := packet.GetFrameBuf(len(in))
				copy(b.B, in)
				if err := fc.Process(b); err != nil {
					t.Fatalf("%d-byte buffer failed the chain: %v", len(in), err)
				}
			}
			if drops != 2 {
				t.Fatalf("%d drops, want the 2 non-frames", drops)
			}
			if err := fc.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
