//go:build arm64 && !purego

#include "textflag.h"

// GF(256) constant multiply via NEON TBL: with the multiplier's two 16-entry
// nibble tables resident in V0 (lo) and V1 (hi), each 16-byte quad costs one
// table lookup per nibble half — TBL uses each index byte to select a table
// entry, so masking with 0x0f (V2) selects lo[b&0x0f] and shifting right four
// first selects hi[b>>4]; their XOR is the product. Two quads are processed
// per loop iteration (32 bytes) to keep the load/store units busy.

// func addMulBlocks32(lo, hi *[16]byte, src, dst *byte, n int)
TEXT ·addMulBlocks32(SB), NOSPLIT, $0-40
	MOVD	lo+0(FP), R0
	MOVD	hi+8(FP), R1
	MOVD	src+16(FP), R2
	MOVD	dst+24(FP), R3
	MOVD	n+32(FP), R4
	VLD1	(R0), [V0.B16]
	VLD1	(R1), [V1.B16]
	VMOVI	$15, V2.B16

addmulloop:
	CBZ	R4, addmuldone
	VLD1.P	32(R2), [V3.B16, V4.B16]
	VUSHR	$4, V3.B16, V5.B16
	VUSHR	$4, V4.B16, V6.B16
	VAND	V2.B16, V3.B16, V3.B16
	VAND	V2.B16, V4.B16, V4.B16
	VTBL	V3.B16, [V0.B16], V7.B16
	VTBL	V5.B16, [V1.B16], V16.B16
	VTBL	V4.B16, [V0.B16], V8.B16
	VTBL	V6.B16, [V1.B16], V17.B16
	VEOR	V16.B16, V7.B16, V7.B16
	VEOR	V17.B16, V8.B16, V8.B16
	VLD1	(R3), [V18.B16, V19.B16]
	VEOR	V18.B16, V7.B16, V7.B16
	VEOR	V19.B16, V8.B16, V8.B16
	VST1.P	[V7.B16, V8.B16], 32(R3)
	SUB	$1, R4, R4
	B	addmulloop

addmuldone:
	RET

// func mulBlocks32(lo, hi *[16]byte, src, dst *byte, n int)
TEXT ·mulBlocks32(SB), NOSPLIT, $0-40
	MOVD	lo+0(FP), R0
	MOVD	hi+8(FP), R1
	MOVD	src+16(FP), R2
	MOVD	dst+24(FP), R3
	MOVD	n+32(FP), R4
	VLD1	(R0), [V0.B16]
	VLD1	(R1), [V1.B16]
	VMOVI	$15, V2.B16

mulloop:
	CBZ	R4, muldone
	VLD1.P	32(R2), [V3.B16, V4.B16]
	VUSHR	$4, V3.B16, V5.B16
	VUSHR	$4, V4.B16, V6.B16
	VAND	V2.B16, V3.B16, V3.B16
	VAND	V2.B16, V4.B16, V4.B16
	VTBL	V3.B16, [V0.B16], V7.B16
	VTBL	V5.B16, [V1.B16], V16.B16
	VTBL	V4.B16, [V0.B16], V8.B16
	VTBL	V6.B16, [V1.B16], V17.B16
	VEOR	V16.B16, V7.B16, V7.B16
	VEOR	V17.B16, V8.B16, V8.B16
	VST1.P	[V7.B16, V8.B16], 32(R3)
	SUB	$1, R4, R4
	B	mulloop

muldone:
	RET
