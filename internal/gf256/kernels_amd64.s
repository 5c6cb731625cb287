//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	eaxArg+0(FP), AX
	MOVL	ecxArg+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// GF(256) constant multiply via PSHUFB: with the multiplier's two 16-entry
// nibble tables resident in X0 (lo) and X1 (hi), each 16-byte block costs one
// shuffle per table — PSHUFB uses the low nibble of every source byte as a
// table index, so masking with 0x0f (X2) selects lo[b&0x0f] and shifting
// right four first selects hi[b>>4]; their XOR is the product (the same
// decomposition the portable wideTab kernel walks a word at a time).
//
// PROCESS(src-offset, dst-offset) leaves the 16 products XORed into the
// destination block; the overwriting variant stores them directly.

#define ADDMUL16(OFF) \
	MOVOU	OFF(SI), X3  \
	MOVOU	X3, X4       \
	PSRLQ	$4, X4       \
	PAND	X2, X3       \
	PAND	X2, X4       \
	MOVOU	X0, X5       \
	MOVOU	X1, X6       \
	PSHUFB	X3, X5       \
	PSHUFB	X4, X6       \
	PXOR	X6, X5       \
	MOVOU	OFF(DI), X7  \
	PXOR	X7, X5       \
	MOVOU	X5, OFF(DI)

#define MUL16(OFF) \
	MOVOU	OFF(SI), X3  \
	MOVOU	X3, X4       \
	PSRLQ	$4, X4       \
	PAND	X2, X3       \
	PAND	X2, X4       \
	MOVOU	X0, X5       \
	MOVOU	X1, X6       \
	PSHUFB	X3, X5       \
	PSHUFB	X4, X6       \
	PXOR	X6, X5       \
	MOVOU	X5, OFF(DI)

// func addMulBlocks(lo, hi *[16]byte, src, dst *byte, n int)
TEXT ·addMulBlocks(SB), NOSPLIT, $0-40
	MOVQ	lo+0(FP), AX
	MOVQ	hi+8(FP), BX
	MOVQ	src+16(FP), SI
	MOVQ	dst+24(FP), DI
	MOVQ	n+32(FP), CX
	MOVOU	(AX), X0
	MOVOU	(BX), X1
	MOVQ	$0x0f0f0f0f0f0f0f0f, AX
	MOVQ	AX, X2
	PUNPCKLQDQ	X2, X2

addmul4:
	CMPQ	CX, $4
	JLT	addmul1
	ADDMUL16(0)
	ADDMUL16(16)
	ADDMUL16(32)
	ADDMUL16(48)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$4, CX
	JMP	addmul4

addmul1:
	TESTQ	CX, CX
	JZ	addmuldone
	ADDMUL16(0)
	ADDQ	$16, SI
	ADDQ	$16, DI
	DECQ	CX
	JMP	addmul1

addmuldone:
	RET

// func mulBlocks(lo, hi *[16]byte, src, dst *byte, n int)
TEXT ·mulBlocks(SB), NOSPLIT, $0-40
	MOVQ	lo+0(FP), AX
	MOVQ	hi+8(FP), BX
	MOVQ	src+16(FP), SI
	MOVQ	dst+24(FP), DI
	MOVQ	n+32(FP), CX
	MOVOU	(AX), X0
	MOVOU	(BX), X1
	MOVQ	$0x0f0f0f0f0f0f0f0f, AX
	MOVQ	AX, X2
	PUNPCKLQDQ	X2, X2

mul4:
	CMPQ	CX, $4
	JLT	mul1
	MUL16(0)
	MUL16(16)
	MUL16(32)
	MUL16(48)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$4, CX
	JMP	mul4

mul1:
	TESTQ	CX, CX
	JZ	muldone
	MUL16(0)
	ADDQ	$16, SI
	ADDQ	$16, DI
	DECQ	CX
	JMP	mul1

muldone:
	RET
