//go:build amd64 && !purego

package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestAsmKernelMatchesWide drives the PSHUFB block kernels directly against
// the portable wide kernels on large random slices, so the 4-block unroll and
// the partial-trailing-block handoff are exercised beyond the short
// deterministic offsets test.
func TestAsmKernelMatchesWide(t *testing.T) {
	if !hasSSSE3 {
		t.Skip("no SSSE3")
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{16, 64, 65, 127, 1024, 4096 + 48} {
		src := make([]byte, n)
		seed := make([]byte, n)
		rng.Read(src)
		rng.Read(seed)
		for _, c := range []byte{2, 0x1d, 0x53, 0x80, 0xff} {
			want := make([]byte, n)
			copy(want, seed)
			addMulWide(&wideTables[c], src, want)
			got := make([]byte, n)
			copy(got, seed)
			nt := &nibTables[c]
			addMulBlocks(&nt.lo, &nt.hi, &src[0], &got[0], n>>4)
			if tail := n &^ 15; tail < n {
				addMulWide(&wideTables[c], src[tail:], got[tail:])
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("addMulBlocks c=%#x n=%d diverges from wide kernel", c, n)
			}
			mulWide(&wideTables[c], src, want)
			mulBlocks(&nt.lo, &nt.hi, &src[0], &got[0], n>>4)
			if tail := n &^ 15; tail < n {
				mulWide(&wideTables[c], src[tail:], got[tail:])
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("mulBlocks c=%#x n=%d diverges from wide kernel", c, n)
			}
		}
	}
}

// TestNibTablesAgreeWithMulTable pins the byte-form split tables to the
// product table.
func TestNibTablesAgreeWithMulTable(t *testing.T) {
	for c := 1; c < Order; c++ {
		for x := 0; x < 16; x++ {
			if nibTables[c].lo[x] != mulTable[c][x] || nibTables[c].hi[x] != mulTable[c][x<<4] {
				t.Fatalf("nibTables[%d] entry %d disagrees with mulTable", c, x)
			}
		}
	}
}
