package gf256

import (
	"fmt"
	"math/rand"
	"testing"

	"rapidware/internal/race"
)

// addMulSizes are the payload sizes BenchmarkGF256AddMul runs the kernel at,
// from one cache line (64B) to the maximum frame (64KiB).
var addMulSizes = []int{64, 320, 1024, 1400, 16 << 10, 64 << 10}

// addMulOperands returns seeded source and destination slices of size bytes.
func addMulOperands(size int) (src, dst []byte) {
	rng := rand.New(rand.NewSource(1))
	src = make([]byte, size)
	dst = make([]byte, size)
	rng.Read(src)
	rng.Read(dst)
	return src, dst
}

// BenchmarkGF256AddMul measures the erasure coder's inner-loop kernel across
// payload sizes, the figure the wide split-table and PSHUFB kernels exist to
// move. TestGF256AddMulAllocs holds it allocation-free; bench/ reports its
// throughput as gf256.addmul_mb_s.
func BenchmarkGF256AddMul(b *testing.B) {
	for _, size := range addMulSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			src, dst := addMulOperands(size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AddMulSlice(0x53, src, dst)
			}
		})
	}
}

func TestGF256AddMulAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, size := range addMulSizes {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			src, dst := addMulOperands(size)
			if n := testing.AllocsPerRun(100, func() { AddMulSlice(0x53, src, dst) }); n != 0 {
				t.Fatalf("%v allocs/op, want 0", n)
			}
		})
	}
}

// benchScalarAddMul is the pre-wide-kernel byte-table walk, kept as the
// baseline the SWAR kernel is compared against.
func benchScalarAddMul(c byte, src, dst []byte) {
	row := &mulTable[c]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

func BenchmarkGF256AddMulScalarBaseline(b *testing.B) {
	for _, size := range []int{320, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			src, dst := addMulOperands(size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchScalarAddMul(0x53, src, dst)
			}
		})
	}
}
