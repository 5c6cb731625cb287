// Package gf256 implements arithmetic over the finite field GF(2^8) and the
// dense matrix operations needed by Vandermonde-based erasure codes.
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same generator used by Rizzo's
// erasure-code library that the paper's FEC filter is based on. Multiplication
// and inversion are table driven (log/exp tables built at package
// initialization from constant data, not from mutable global state observable
// by callers).
//
// The bulk slice operations ([AddMulSlice], [MulSlice] and their one-source,
// many-destination forms [MulSliceN] and [AddMulSliceN], the source-major
// loop the FEC coder's encode and decode share) dispatch through three tiers
// selected by build and CPU: split-table scalar for slices shorter than a
// word, 8-byte split-nibble SWAR (the portable floor, also the purego and 386
// path), and one vector kernel per architecture — SSSE3 16-byte PSHUFB blocks
// on amd64, NEON 32-byte TBL blocks on arm64 — with the SWAR kernel finishing
// each sub-block tail. Every tier is differentially tested against the scalar
// field arithmetic for all multipliers, lengths and alignments.
package gf256

import "fmt"

// Order is the number of elements in GF(2^8).
const Order = 256

// primitivePoly is the reduction polynomial, expressed with the x^8 term
// stripped (the classic 0x1d representation of 0x11d).
const primitivePoly = 0x1d

// tables bundles the log/exp lookup tables so that they can be computed once
// and treated as immutable after construction.
type tables struct {
	exp [2 * Order]byte // exp[i] = g^i, doubled to avoid a mod in Mul
	log [Order]byte     // log[exp[i]] = i, log[0] undefined (0)
}

var ft = buildTables()

func buildTables() *tables {
	t := &tables{}
	x := byte(1)
	for i := 0; i < Order-1; i++ {
		t.exp[i] = x
		t.log[x] = byte(i)
		// multiply x by the generator (2) with reduction.
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= primitivePoly
		}
	}
	// Extend the exp table so Mul can index exp[logA+logB] without a modulo.
	for i := Order - 1; i < 2*Order; i++ {
		t.exp[i] = t.exp[i-(Order-1)]
	}
	return t
}

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return ft.exp[int(ft.log[a])+int(ft.log[b])]
}

// Inv returns the multiplicative inverse of a. Inv(0) panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return ft.exp[(Order-1)-int(ft.log[a])]
}

// Pow returns a^e in GF(2^8) for e >= 0.
func Pow(a byte, e int) byte {
	if e < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", e))
	}
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	le := (int(ft.log[a]) * e) % (Order - 1)
	return ft.exp[le]
}

// The batched slice kernels (MulSlice, AddMulSlice and their N forms) live
// in kernels.go.
