package gf256

import "encoding/binary"

// This file holds the batched kernels behind the FEC encode/decode inner
// loop. The c==0 and c==1 cases degenerate to a clear, a copy or a pure XOR
// that runs one machine word at a time. Every other coefficient goes through
// its split nibble tables: two 16-entry tables, lo[x] = c*x and
// hi[x] = c*(x<<4), cover the field as c*b = lo[b&0x0f] ^ hi[b>>4]. Slices
// shorter than a word take that lookup a byte at a time (the scalar tier);
// longer ones run the SWAR tier, which expands the tables to 64-bit lanes and
// multiplies eight bytes per step in a branch-free bit-plane pass (see
// wideTab), 4x unrolled. The product table mulTable (from Rizzo's fec
// library) only seeds the split tables.
//
// Above the SWAR tier sits one vector kernel per architecture, driven by the
// same split nibble tables in byte form (nibTab): on amd64, SSSE3 PSHUFB
// multiplies 16 bytes per shuffle pair (kernels_amd64.s, detected at init);
// on arm64, NEON TBL does the same 16 bytes per lookup (kernels_arm64.s,
// unconditional — ASIMD is architectural). addMulFast/mulFast gate those
// paths and the portable build resolves them to no-ops (kernels_noasm.go,
// forced everywhere by the purego tag).

// nibTab is one multiplier's split table in byte form, contiguous so the
// vector kernels can load each half with a single 16-byte move: lo[x] = c*x
// and hi[x] = c*(x<<4), together covering the field through
// c*b = lo[b&0x0f] ^ hi[b>>4].
type nibTab struct {
	lo [16]byte
	hi [16]byte
}

var nibTables = buildNibTables()

func buildNibTables() *[Order]nibTab {
	ts := &[Order]nibTab{}
	for c := 1; c < Order; c++ {
		row := &mulTable[c]
		for x := 0; x < 16; x++ {
			ts[c].lo[x] = row[x]
			ts[c].hi[x] = row[x<<4]
		}
	}
	return ts
}

// mulTable[c][x] is the GF(2^8) product c*x.
var mulTable = buildMulTable()

func buildMulTable() *[Order][Order]byte {
	t := &[Order][Order]byte{}
	for c := 1; c < Order; c++ {
		logC := int(ft.log[c])
		for x := 1; x < Order; x++ {
			t[c][x] = ft.exp[logC+int(ft.log[x])]
		}
	}
	return t
}

const (
	wordSize = 8
	// lanes replicates a byte across the eight lanes of a 64-bit word.
	lanes = 0x0101010101010101
)

// wideTab is multiplier c's split product table expanded to 64-bit lanes: two
// 16-entry nibble tables where lo[x] = c*x and hi[x] = c*(x<<4), each product
// byte replicated across all eight lanes. Because c*b = c*(b&0x0f) ^
// c*(b>>4<<4), the two tables together cover the field with 32 entries instead
// of 256 — and their power-of-two entries are exactly the per-bit constants
// the word-at-a-time kernel needs (see mulWord).
type wideTab struct {
	lo [16]uint64
	hi [16]uint64
}

// wideTables holds one split table per multiplier (64 KiB total, the same
// footprint as mulTable; only the 32 hot entries of the active multiplier live
// in cache during an encode pass, versus the full 256-byte row of mulTable).
var wideTables = buildWideTables()

func buildWideTables() *[Order]wideTab {
	ts := &[Order]wideTab{}
	for c := 1; c < Order; c++ {
		row := &mulTable[c]
		for x := 0; x < 16; x++ {
			ts[c].lo[x] = uint64(row[x]) * lanes
			ts[c].hi[x] = uint64(row[x<<4]) * lanes
		}
	}
	return ts
}

// planes are the eight pre-broadcast bit-plane constants of one multiplier:
// planes[j] is c*2^j replicated across all lanes — exactly the power-of-two
// entries of the split tables (lo[1<<j] for j<4, hi[1<<j] for j>=4), gathered
// so the word kernel keeps them in registers.
type planes [8]uint64

func (t *wideTab) planes() planes {
	return planes{t.lo[1], t.lo[2], t.lo[4], t.lo[8], t.hi[1], t.hi[2], t.hi[4], t.hi[8]}
}

// mulWord multiplies all eight bytes of w by the planes' coefficient in one
// branch-free pass. GF(2^8) multiplication by a constant is linear over GF(2),
// so c*b = XOR over the set bits j of b of c*2^j. For each bit plane j the
// mask m = (w>>j)&lanes has a 1 in every lane whose byte has bit j set;
// (m<<8)-m widens each 1 to a full-lane 0xff (lanes hold only 0 or 1, so the
// borrow never crosses a lane), selecting that plane's pre-broadcast constant.
func (p *planes) mulWord(w uint64) uint64 {
	m := w & lanes
	acc := p[0] & (m<<8 - m)
	m = w >> 1 & lanes
	acc ^= p[1] & (m<<8 - m)
	m = w >> 2 & lanes
	acc ^= p[2] & (m<<8 - m)
	m = w >> 3 & lanes
	acc ^= p[3] & (m<<8 - m)
	m = w >> 4 & lanes
	acc ^= p[4] & (m<<8 - m)
	m = w >> 5 & lanes
	acc ^= p[5] & (m<<8 - m)
	m = w >> 6 & lanes
	acc ^= p[6] & (m<<8 - m)
	m = w >> 7 & lanes
	acc ^= p[7] & (m<<8 - m)
	return acc
}

// mulByte multiplies one byte via the split tables — the scalar tail of the
// wide kernels, touching only the 32 resident table entries.
func (t *wideTab) mulByte(b byte) byte {
	return byte(t.lo[b&0x0f]) ^ byte(t.hi[b>>4])
}

// addMulWide computes dst[i] ^= c*src[i] a word at a time, 4x unrolled, with a
// word-then-scalar tail. Loading and storing through LittleEndian keeps lane j
// bound to byte index j on every architecture, so the kernel is endian- and
// word-size-safe (the property tests run it under GOARCH=386 in CI).
func addMulWide(t *wideTab, src, dst []byte) {
	p := t.planes()
	n := len(src)
	i := 0
	for ; i+4*wordSize <= n; i += 4 * wordSize {
		s0 := binary.LittleEndian.Uint64(src[i:])
		s1 := binary.LittleEndian.Uint64(src[i+wordSize:])
		s2 := binary.LittleEndian.Uint64(src[i+2*wordSize:])
		s3 := binary.LittleEndian.Uint64(src[i+3*wordSize:])
		d0 := binary.LittleEndian.Uint64(dst[i:])
		d1 := binary.LittleEndian.Uint64(dst[i+wordSize:])
		d2 := binary.LittleEndian.Uint64(dst[i+2*wordSize:])
		d3 := binary.LittleEndian.Uint64(dst[i+3*wordSize:])
		binary.LittleEndian.PutUint64(dst[i:], d0^p.mulWord(s0))
		binary.LittleEndian.PutUint64(dst[i+wordSize:], d1^p.mulWord(s1))
		binary.LittleEndian.PutUint64(dst[i+2*wordSize:], d2^p.mulWord(s2))
		binary.LittleEndian.PutUint64(dst[i+3*wordSize:], d3^p.mulWord(s3))
	}
	for ; i+wordSize <= n; i += wordSize {
		s := binary.LittleEndian.Uint64(src[i:])
		d := binary.LittleEndian.Uint64(dst[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^p.mulWord(s))
	}
	for ; i < n; i++ {
		dst[i] ^= t.mulByte(src[i])
	}
}

// mulWide is addMulWide's overwriting twin: dst[i] = c*src[i].
func mulWide(t *wideTab, src, dst []byte) {
	p := t.planes()
	n := len(src)
	i := 0
	for ; i+4*wordSize <= n; i += 4 * wordSize {
		s0 := binary.LittleEndian.Uint64(src[i:])
		s1 := binary.LittleEndian.Uint64(src[i+wordSize:])
		s2 := binary.LittleEndian.Uint64(src[i+2*wordSize:])
		s3 := binary.LittleEndian.Uint64(src[i+3*wordSize:])
		binary.LittleEndian.PutUint64(dst[i:], p.mulWord(s0))
		binary.LittleEndian.PutUint64(dst[i+wordSize:], p.mulWord(s1))
		binary.LittleEndian.PutUint64(dst[i+2*wordSize:], p.mulWord(s2))
		binary.LittleEndian.PutUint64(dst[i+3*wordSize:], p.mulWord(s3))
	}
	for ; i+wordSize <= n; i += wordSize {
		binary.LittleEndian.PutUint64(dst[i:], p.mulWord(binary.LittleEndian.Uint64(src[i:])))
	}
	for ; i < n; i++ {
		dst[i] = t.mulByte(src[i])
	}
}

// xorWords computes dst[i] ^= src[i] one 64-bit word at a time with a scalar
// tail. len(src) must not exceed len(dst).
func xorWords(dst, src []byte) {
	n := len(src)
	for n >= wordSize {
		d := binary.LittleEndian.Uint64(dst)
		s := binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst, d^s)
		dst = dst[wordSize:]
		src = src[wordSize:]
		n -= wordSize
	}
	for i := 0; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// MulSlice multiplies every byte of src by c and stores the result in dst.
// dst and src must have the same length; dst may alias src.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		clear(dst)
		return
	case 1:
		copy(dst, src)
		return
	}
	wt := &wideTables[c]
	if mulFast(&nibTables[c], wt, src, dst) {
		return
	}
	if len(src) >= wordSize {
		mulWide(wt, src, dst)
		return
	}
	for i, s := range src {
		dst[i] = wt.mulByte(s)
	}
}

// AddMulSlice computes dst[i] ^= c*src[i] for every index: the inner loop of
// the erasure encoder and decoder. dst and src must have the same length.
func AddMulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: AddMulSlice length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		xorWords(dst, src)
		return
	}
	wt := &wideTables[c]
	if addMulFast(&nibTables[c], wt, src, dst) {
		return
	}
	if len(src) >= wordSize {
		addMulWide(wt, src, dst)
		return
	}
	for i, s := range src {
		dst[i] ^= wt.mulByte(s)
	}
}

// MulSliceN scatters one source into many destinations in a single pass:
// dsts[i] = cs[i]*src for every i, so src is read once while hot in cache
// instead of once per destination. Every destination must have the same
// length as src. It is the overwriting first step of the FEC coder's
// source-major loop; see AddMulSliceN.
func MulSliceN(cs []byte, src []byte, dsts [][]byte) {
	if len(cs) != len(dsts) {
		panic("gf256: MulSliceN coefficient count mismatch")
	}
	for i, dst := range dsts {
		MulSlice(cs[i], src, dst)
	}
}

// AddMulSliceN computes dsts[i] ^= cs[i]*src for every destination: the
// accumulating step of the source-major loop that fec's encode and decode
// share, folding one input share into every output while its bytes are
// resident in cache. Every destination must have the same length as src.
func AddMulSliceN(cs []byte, src []byte, dsts [][]byte) {
	if len(cs) != len(dsts) {
		panic("gf256: AddMulSliceN coefficient count mismatch")
	}
	for i, dst := range dsts {
		AddMulSlice(cs[i], src, dst)
	}
}
