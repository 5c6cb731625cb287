//go:build amd64 && !purego

package gf256

// amd64 fast path: the split nibble tables live in vector registers and a
// byte shuffle resolves one table lookup per source byte — the SIMD form of
// the same lo[b&0x0f] ^ hi[b>>4] decomposition the portable kernel uses.
// SSSE3 PSHUFB moves 16 bytes per shuffle pair; it is detected at init, and
// CPUs without it fall back to the portable kernel. Build with -tags purego
// to force the portable path.

// hasSSSE3 reports whether the CPU implements PSHUFB (CPUID.1:ECX bit 9).
// Detected directly because the runtime's internal/cpu flags are not
// importable from here.
var hasSSSE3 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<9) != 0
}()

// cpuid executes the CPUID instruction. Implemented in kernels_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// addMulBlocks computes dst[i] ^= c*src[i] over n 16-byte blocks using the
// SSSE3 PSHUFB split-table kernel. src and dst must not overlap and must each
// hold at least 16*n bytes. Implemented in kernels_amd64.s.
//
//go:noescape
func addMulBlocks(lo, hi *[16]byte, src, dst *byte, n int)

// mulBlocks is addMulBlocks' overwriting twin: dst[i] = c*src[i].
//
//go:noescape
func mulBlocks(lo, hi *[16]byte, src, dst *byte, n int)

// addMulFast runs dst[i] ^= c*src[i] through the SSSE3 kernel, finishing the
// sub-block tail with the portable wide kernel. Returns false (having done
// nothing) when the slice is too short to fill a 16-byte block or the CPU
// lacks SSSE3, letting the caller fall back. The multiplier arrives as its
// precomputed tables, resolved once per call by the exported entry points.
func addMulFast(nt *nibTab, wt *wideTab, src, dst []byte) bool {
	if !hasSSSE3 || len(src) < 16 {
		return false
	}
	n := len(src) &^ 15
	addMulBlocks(&nt.lo, &nt.hi, &src[0], &dst[0], n>>4)
	if n < len(src) {
		addMulWide(wt, src[n:], dst[n:])
	}
	return true
}

// mulFast is addMulFast's overwriting twin.
func mulFast(nt *nibTab, wt *wideTab, src, dst []byte) bool {
	if !hasSSSE3 || len(src) < 16 {
		return false
	}
	n := len(src) &^ 15
	mulBlocks(&nt.lo, &nt.hi, &src[0], &dst[0], n>>4)
	if n < len(src) {
		mulWide(wt, src[n:], dst[n:])
	}
	return true
}
