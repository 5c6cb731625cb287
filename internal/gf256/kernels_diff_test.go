package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential coverage for the whole kernel hierarchy: whatever tier the
// build and host dispatch to (scalar, SWAR, SSSE3, NEON), the public
// slice operations must agree byte-for-byte with the scalar field arithmetic.
// These tests run identically under purego, GOARCH=386 and the qemu arm64
// lane, so every tier is pinned to the same reference.

// scalarAddMulRef is the byte-at-a-time reference: dst[i] ^= c*src[i].
func scalarAddMulRef(c byte, src, dst []byte) {
	for i := range src {
		dst[i] ^= Mul(c, src[i])
	}
}

// TestAddMulSliceKernelsExhaustive sweeps every multiplier against every
// length 0..257 with rotating, independently unaligned source and destination
// offsets, so block boundaries (16 for SSSE3, 32 for NEON, 8 for SWAR)
// and the scalar tails beyond them are all crossed for all 256 tables.
func TestAddMulSliceKernelsExhaustive(t *testing.T) {
	const maxLen = 257
	base := make([]byte, maxLen+2*wordSize)
	seed := make([]byte, maxLen+2*wordSize)
	rng := rand.New(rand.NewSource(41))
	rng.Read(base)
	rng.Read(seed)
	dst := make([]byte, len(seed))
	want := make([]byte, len(seed))
	got2 := make([]byte, len(seed))
	for c := 0; c < Order; c++ {
		for n := 0; n <= maxLen; n++ {
			soff := (c*31 + n) % wordSize
			doff := (c*17 + n*5) % wordSize
			src := base[soff : soff+n]
			d := dst[doff : doff+n]
			w := want[doff : doff+n]
			copy(d, seed[doff:doff+n])
			copy(w, d)
			scalarAddMulRef(byte(c), src, w)
			AddMulSlice(byte(c), src, d)
			if !bytes.Equal(d, w) {
				t.Fatalf("AddMulSlice c=%#x n=%d soff=%d doff=%d diverges from scalar", c, n, soff, doff)
			}
			g := got2[doff : doff+n]
			MulSlice(byte(c), src, g)
			for i := range g {
				if g[i] != Mul(byte(c), src[i]) {
					t.Fatalf("MulSlice c=%#x n=%d soff=%d doff=%d byte %d", c, n, soff, doff, i)
				}
			}
		}
	}
}

// TestAddMulWideMatchesScalar pins the SWAR tier itself (not just whatever
// addMulFast dispatches to) against the scalar reference, so on hosts where
// the vector tier handles everything the portable fallback still gets proven.
func TestAddMulWideMatchesScalar(t *testing.T) {
	base := make([]byte, 300)
	rng := rand.New(rand.NewSource(42))
	rng.Read(base)
	for _, c := range []byte{1, 2, 3, 0x1d, 0x53, 0x80, 0xfe, 0xff} {
		wt := &wideTables[c]
		for _, n := range []int{wordSize, 2 * wordSize, 31, 32, 33, 63, 64, 65, 127, 257} {
			for off := 0; off < wordSize; off++ {
				src := base[off : off+n]
				got := make([]byte, n)
				want := make([]byte, n)
				for i := range got {
					got[i] = byte(i*11 + 7)
					want[i] = got[i]
				}
				scalarAddMulRef(c, src, want)
				addMulWide(wt, src, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("addMulWide c=%#x n=%d off=%d diverges from scalar", c, n, off)
				}
				mulWide(wt, src, got)
				for i := range got {
					if got[i] != Mul(c, src[i]) {
						t.Fatalf("mulWide c=%#x n=%d off=%d byte %d", c, n, off, i)
					}
				}
			}
		}
	}
}

// TestAddMulSliceNMatchesScalar checks the batched scatter entry point: one
// source fanned into several destinations under distinct coefficients.
func TestAddMulSliceNMatchesScalar(t *testing.T) {
	prop := func(cs []byte, src []byte, rows uint8) bool {
		m := int(rows%5) + 1
		if len(cs) < m {
			return true
		}
		cs = cs[:m]
		dsts := make([][]byte, m)
		want := make([][]byte, m)
		for i := range dsts {
			dsts[i] = make([]byte, len(src))
			for j := range dsts[i] {
				dsts[i][j] = byte(i*37 + j*3)
			}
			want[i] = append([]byte(nil), dsts[i]...)
			scalarAddMulRef(cs[i], src, want[i])
		}
		AddMulSliceN(cs, src, dsts)
		for i := range dsts {
			if !bytes.Equal(dsts[i], want[i]) {
				return false
			}
		}
		// Overwriting variant: dst[i] = cs[i]*src.
		MulSliceN(cs, src, dsts)
		for i := range dsts {
			for j := range dsts[i] {
				if dsts[i][j] != Mul(cs[i], src[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAddMulSliceKernels feeds arbitrary coefficients, offsets and payloads
// through the dispatched kernels and cross-checks scalar reference, SWAR tier
// and public entry points against each other.
func FuzzAddMulSliceKernels(f *testing.F) {
	f.Add(uint8(0x53), uint8(3), []byte("differential kernel fuzzing seed payload, long enough to cross a block"))
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(7), make([]byte, 257))
	f.Add(uint8(0xff), uint8(1), bytes.Repeat([]byte{0xa5}, 64))
	f.Fuzz(func(t *testing.T, c uint8, off uint8, data []byte) {
		o := int(off) % wordSize
		if len(data) < o {
			return
		}
		src := data[o:]
		n := len(src)
		seed := make([]byte, n)
		for i := range seed {
			seed[i] = byte(i*13 + int(c))
		}
		want := append([]byte(nil), seed...)
		scalarAddMulRef(c, src, want)

		got := append([]byte(nil), seed...)
		AddMulSlice(c, src, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("AddMulSlice c=%#x n=%d off=%d diverges from scalar", c, n, o)
		}

		copy(got, seed)
		addMulWide(&wideTables[c], src, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("addMulWide c=%#x n=%d off=%d diverges from scalar", c, n, o)
		}

		MulSlice(c, src, got)
		for i := range got {
			if got[i] != Mul(c, src[i]) {
				t.Fatalf("MulSlice c=%#x n=%d off=%d byte %d", c, n, o, i)
			}
		}
	})
}
