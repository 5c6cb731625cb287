package gf256

import (
	"bytes"
	"testing"
	"testing/quick"
)

// The batched kernels must agree byte-for-byte with the scalar field
// operations they replace, for every coefficient and any slice length or
// alignment (the word-at-a-time XOR has scalar head/tail handling to get
// wrong).

func TestAddMulSliceMatchesScalar(t *testing.T) {
	prop := func(c byte, src []byte, seed []byte) bool {
		dst := make([]byte, len(src))
		copy(dst, seed)
		want := make([]byte, len(src))
		copy(want, dst)
		for i := range src {
			want[i] ^= Mul(c, src[i])
		}
		AddMulSlice(c, src, dst)
		return bytes.Equal(dst, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	prop := func(c byte, src []byte) bool {
		dst := make([]byte, len(src))
		MulSlice(c, src, dst)
		for i := range src {
			if dst[i] != Mul(c, src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestXORWordsOffsets nails the word/tail boundary cases deterministically:
// every length 0..40 and every starting offset within a word.
func TestXORWordsOffsets(t *testing.T) {
	base := make([]byte, 64)
	for i := range base {
		base[i] = byte(i*7 + 3)
	}
	for off := 0; off < wordSize; off++ {
		for n := 0; n <= 40; n++ {
			src := base[off : off+n]
			dst := make([]byte, n)
			for i := range dst {
				dst[i] = byte(i * 13)
			}
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ src[i]
			}
			xorWords(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("xorWords off=%d n=%d mismatch", off, n)
			}
		}
	}
}

// TestAddMulSliceOffsets nails the wide kernel's unroll/word/tail boundaries
// deterministically: every length 0..72 and every starting offset within a
// word, across a sample of coefficients (0, 1, 2 and three generic values).
func TestAddMulSliceOffsets(t *testing.T) {
	base := make([]byte, 128)
	for i := range base {
		base[i] = byte(i*29 + 11)
	}
	for _, c := range []byte{0, 1, 2, 0x1d, 0x53, 0xff} {
		for off := 0; off < wordSize; off++ {
			for n := 0; n <= 72; n++ {
				src := base[off : off+n]
				dst := make([]byte, n)
				want := make([]byte, n)
				for i := range dst {
					dst[i] = byte(i*17 + 5)
					want[i] = dst[i] ^ Mul(c, src[i])
				}
				AddMulSlice(c, src, dst)
				if !bytes.Equal(dst, want) {
					t.Fatalf("AddMulSlice c=%#x off=%d n=%d mismatch", c, off, n)
				}
				got := make([]byte, n)
				MulSlice(c, src, got)
				for i := range got {
					if got[i] != Mul(c, src[i]) {
						t.Fatalf("MulSlice c=%#x off=%d n=%d byte %d", c, off, n, i)
					}
				}
			}
		}
	}
}

// TestWideTablesAgreeWithMulTable cross-checks the split nibble tables (and
// their lane replication) against the product table for the whole field.
func TestWideTablesAgreeWithMulTable(t *testing.T) {
	for c := 1; c < Order; c++ {
		w := &wideTables[c]
		for x := 0; x < 16; x++ {
			wantLo := uint64(mulTable[c][x]) * lanes
			wantHi := uint64(mulTable[c][x<<4]) * lanes
			if w.lo[x] != wantLo || w.hi[x] != wantHi {
				t.Fatalf("wideTables[%d] entry %d = %#x/%#x, want %#x/%#x", c, x, w.lo[x], w.hi[x], wantLo, wantHi)
			}
		}
		for b := 0; b < Order; b++ {
			if got, want := w.mulByte(byte(b)), mulTable[c][b]; got != want {
				t.Fatalf("mulByte(%d, %d) = %d, want %d", c, b, got, want)
			}
		}
	}
}

// TestMulTableAgreesWithLogExp cross-checks the 64 KiB product table against
// the log/exp construction over the full field.
func TestMulTableAgreesWithLogExp(t *testing.T) {
	for a := 0; a < Order; a++ {
		for b := 0; b < Order; b++ {
			if got, want := mulTable[a][b], Mul(byte(a), byte(b)); got != want {
				t.Fatalf("mulTable[%d][%d] = %d, want %d", a, b, got, want)
			}
		}
	}
}
