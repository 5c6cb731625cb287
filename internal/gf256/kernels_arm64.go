//go:build arm64 && !purego

package gf256

// arm64 fast path: NEON TBL resolves sixteen nibble-table lookups per
// instruction against the same split tables the portable kernel decomposes
// with — lo[b&0x0f] ^ hi[b>>4]. Advanced SIMD is architectural on AArch64, so
// unlike amd64's SSSE3 there is nothing to detect: every arm64 build runs
// the vector kernel. The assembly processes 32 bytes per loop (two 16-byte
// quads per table) to keep the load/store units busy. Build with -tags purego
// to force the portable path.

// addMulBlocks32 computes dst[i] ^= c*src[i] over n 32-byte blocks using the
// NEON TBL split-table kernel. src and dst must not overlap and must each
// hold at least 32*n bytes. Implemented in kernels_arm64.s.
//
//go:noescape
func addMulBlocks32(lo, hi *[16]byte, src, dst *byte, n int)

// mulBlocks32 is addMulBlocks32's overwriting twin: dst[i] = c*src[i].
//
//go:noescape
func mulBlocks32(lo, hi *[16]byte, src, dst *byte, n int)

// addMulFast runs dst[i] ^= c*src[i] through the NEON kernel, finishing the
// sub-block tail with the portable wide kernel. Returns false (having done
// nothing) when the slice is too short to fill a 32-byte block, letting the
// caller fall back. The multiplier arrives as its precomputed tables,
// resolved once per call by the exported entry points.
func addMulFast(nt *nibTab, wt *wideTab, src, dst []byte) bool {
	if len(src) < 32 {
		return false
	}
	n := len(src) &^ 31
	addMulBlocks32(&nt.lo, &nt.hi, &src[0], &dst[0], n>>5)
	if n < len(src) {
		addMulWide(wt, src[n:], dst[n:])
	}
	return true
}

// mulFast is addMulFast's overwriting twin.
func mulFast(nt *nibTab, wt *wideTab, src, dst []byte) bool {
	if len(src) < 32 {
		return false
	}
	n := len(src) &^ 31
	mulBlocks32(&nt.lo, &nt.hi, &src[0], &dst[0], n>>5)
	if n < len(src) {
		mulWide(wt, src[n:], dst[n:])
	}
	return true
}
