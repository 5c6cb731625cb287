package fec

import (
	"fmt"
	"math/rand"
	"testing"

	"rapidware/internal/race"
)

// encodeParityCase is one BenchmarkFECEncodeParity shape: a group code and a
// share size.
type encodeParityCase struct {
	p    Params
	size int
}

// encodeParityCases are the two group shapes the proxy actually runs — the
// paper-style (12,8) and the deeper (24,16) — at a small-audio share (256B)
// and a full MTU frame (1400B).
var encodeParityCases = []encodeParityCase{
	{Params{K: 8, N: 12}, 256}, {Params{K: 8, N: 12}, 1400},
	{Params{K: 16, N: 24}, 256}, {Params{K: 16, N: 24}, 1400},
}

func (c encodeParityCase) String() string {
	return fmt.Sprintf("n%d-k%d-%dB", c.p.N, c.p.K, c.size)
}

// setup returns a coder for c with seeded source shares and parity shares
// to encode into.
func (c encodeParityCase) setup(tb testing.TB) (coder *Coder, sources, parity [][]byte) {
	coder, err := NewCoder(c.p)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sources = make([][]byte, c.p.K)
	for i := range sources {
		sources[i] = make([]byte, c.size)
		rng.Read(sources[i])
	}
	parity = make([][]byte, c.p.N-c.p.K)
	for i := range parity {
		parity[i] = make([]byte, c.size)
	}
	return coder, sources, parity
}

// BenchmarkFECEncodeParity measures the one-pass source-major parity encode.
// bytes/op counts source bytes consumed, so throughput reads as source
// goodput, not parity volume. TestFECEncodeParityAllocs holds it
// allocation-free; bench/ reports it as fec.encode_ns_per_group.
func BenchmarkFECEncodeParity(b *testing.B) {
	for _, c := range encodeParityCases {
		b.Run(c.String(), func(b *testing.B) {
			coder, sources, parity := c.setup(b)
			b.SetBytes(int64(c.p.K * c.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := coder.EncodeParityInto(sources, parity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestFECEncodeParityAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range encodeParityCases {
		t.Run(c.String(), func(t *testing.T) {
			coder, sources, parity := c.setup(t)
			n := testing.AllocsPerRun(100, func() {
				if err := coder.EncodeParityInto(sources, parity); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Fatalf("%v allocs/op, want 0", n)
			}
		})
	}
}
