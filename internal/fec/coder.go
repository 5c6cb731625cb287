// Package fec implements (n,k) block erasure codes in the style of Rizzo's
// library cited by the paper, plus the block encoder/decoder used by the FEC
// proxy filters. A block of k equally sized source shares is expanded into n
// encoded shares such that ANY k of the n shares reconstruct the k sources.
//
// The code is systematic: the first k encoded shares are the source shares
// themselves, so receivers that lose nothing never pay decoding cost, and a
// single parity share can repair independent single losses at different
// receivers — the property that makes the scheme attractive for wireless
// multicast in the paper.
//
// Encode and decode share one source-major loop: EncodeParityInto and
// ReconstructInto, the one decode kernel, each stream every input share once,
// scattering it into all outputs through gf256.MulSliceN (the first share)
// and gf256.AddMulSliceN (the rest), instead of re-reading the inputs once
// per output row, through the vector kernels of the gf256 package doc. Both
// are allocation-free at steady state (scratch matrices are pooled), and
// FrameEncoder and FrameDecoder carry whole wire frames through them in
// pooled buffers, which is what keeps the proxy's FEC chains off the garbage
// collector.
package fec

import (
	"errors"
	"fmt"
	"sync"

	"rapidware/internal/gf256"
)

// Limits on code parameters. GF(2^8) admits at most 256 total shares; the
// paper uses small groups such as (6,4) to bound latency and jitter.
const (
	MaxShares = 255
)

// Errors returned by the coder.
var (
	ErrBadParams       = errors.New("fec: invalid (n,k) parameters")
	ErrShareSize       = errors.New("fec: shares must be non-empty and equally sized")
	ErrNotEnoughShares = errors.New("fec: not enough shares to reconstruct")
	ErrShareIndex      = errors.New("fec: share index out of range")
)

// Params describes an (n,k) erasure code: k source shares expanded to n total
// shares (k data + n-k parity).
type Params struct {
	K int // number of source shares
	N int // total number of encoded shares
}

// Validate reports whether the parameters describe a usable code.
func (p Params) Validate() error {
	if p.K <= 0 || p.N <= 0 || p.K > p.N || p.N > MaxShares {
		return fmt.Errorf("%w: k=%d n=%d", ErrBadParams, p.K, p.N)
	}
	return nil
}

// Parity returns the number of parity shares (n-k).
func (p Params) Parity() int { return p.N - p.K }

// Overhead returns the bandwidth expansion factor n/k.
func (p Params) Overhead() float64 { return float64(p.N) / float64(p.K) }

// String renders the parameters in the paper's "(n,k)" notation.
func (p Params) String() string { return fmt.Sprintf("(%d,%d)", p.N, p.K) }

// Coder is a reusable systematic (n,k) erasure coder. It is safe for
// concurrent use: all state is immutable after construction.
type Coder struct {
	params Params
	// enc is the n×k generator matrix whose top k×k block is the identity.
	enc *gf256.Matrix
	// parityCols is enc's parity block stored source-major: source j's
	// coefficients in every parity row are parityCols[j*(n-k):(j+1)*(n-k)].
	parityCols []byte
}

// NewCoder builds a coder for the given parameters.
func NewCoder(params Params) (*Coder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	k, n := params.K, params.N
	// Start from an n×k Vandermonde matrix: any k rows are independent.
	vand := gf256.Vandermonde(n, k)
	// Make the code systematic by multiplying on the right with the inverse
	// of the top k×k block, turning that block into the identity while
	// preserving the any-k-rows-invertible property.
	top := vand.SubMatrix(0, k, 0, k)
	topInv, err := top.Invert()
	if err != nil {
		// Cannot happen for a Vandermonde matrix, but do not panic on a
		// library boundary.
		return nil, fmt.Errorf("fec: generator construction failed: %w", err)
	}
	enc, err := vand.Mul(topInv)
	if err != nil {
		return nil, fmt.Errorf("fec: generator construction failed: %w", err)
	}
	m := n - k
	parityCols := make([]byte, k*m)
	for i := 0; i < m; i++ {
		for j, coef := range enc.Row(k + i) {
			parityCols[j*m+i] = coef
		}
	}
	return &Coder{params: params, enc: enc, parityCols: parityCols}, nil
}

// Params returns the coder's parameters.
func (c *Coder) Params() Params { return c.params }

// coderCache memoizes coders by their (comparable) parameters. A Coder is
// immutable after construction, so one instance per (n,k) serves every
// encoder, decoder and adaptation retune in the process — the generator
// construction (Vandermonde build, k×k inversion, n×k multiply) is paid once
// per code, not once per retune or per reconstructed group.
var coderCache sync.Map // Params -> *Coder

// CoderFor returns the process-wide shared coder for the given parameters,
// building it on first use. The returned coder is safe for concurrent use and
// must not be mutated.
func CoderFor(params Params) (*Coder, error) {
	if c, ok := coderCache.Load(params); ok {
		return c.(*Coder), nil
	}
	c, err := NewCoder(params)
	if err != nil {
		return nil, err
	}
	actual, _ := coderCache.LoadOrStore(params, c)
	return actual.(*Coder), nil
}

// validateSources checks that sources has exactly k non-empty, equally sized
// shares and returns the common share size.
func (c *Coder) validateSources(sources [][]byte) (int, error) {
	k := c.params.K
	if len(sources) != k {
		return 0, fmt.Errorf("%w: got %d sources, want %d", ErrShareSize, len(sources), k)
	}
	size := 0
	for i, s := range sources {
		if len(s) == 0 {
			return 0, fmt.Errorf("%w: source %d is empty", ErrShareSize, i)
		}
		if i == 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("%w: source %d has %d bytes, want %d", ErrShareSize, i, len(s), size)
		}
	}
	return size, nil
}

// Encode expands k source shares into n encoded shares. The first k returned
// shares are the sources themselves (copied), the remaining n-k are parity.
// All sources must be non-empty and of identical length.
func (c *Coder) Encode(sources [][]byte) ([][]byte, error) {
	k, n := c.params.K, c.params.N
	size, err := c.validateSources(sources)
	if err != nil {
		return nil, err
	}
	shares := make([][]byte, n)
	for i := 0; i < k; i++ {
		shares[i] = append([]byte(nil), sources[i]...)
	}
	for r := k; r < n; r++ {
		shares[r] = make([]byte, size)
	}
	if err := c.EncodeParityInto(sources, shares[k:]); err != nil {
		return nil, err
	}
	return shares, nil
}

// EncodeParity computes only the n-k parity shares for the given sources,
// avoiding the copy of the data shares when the caller already owns them.
func (c *Coder) EncodeParity(sources [][]byte) ([][]byte, error) {
	size, err := c.validateSources(sources)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, c.params.Parity())
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	if err := c.EncodeParityInto(sources, parity); err != nil {
		return nil, err
	}
	return parity, nil
}

// EncodeParityInto computes the n-k parity shares into the caller-provided
// slices, the allocation-free encode path: parity must hold exactly
// Params().Parity() slices, each the same length as the sources. Existing
// parity contents are overwritten.
//
// The multiply is the source-major loop ReconstructInto runs: each source
// streams once through its column of parity coefficients into every parity
// share, the first overwriting (MulSliceN) and the rest accumulating
// (AddMulSliceN).
func (c *Coder) EncodeParityInto(sources, parity [][]byte) error {
	size, err := c.validateSources(sources)
	if err != nil {
		return err
	}
	if len(parity) != c.params.Parity() {
		return fmt.Errorf("%w: got %d parity shares, want %d", ErrShareSize, len(parity), c.params.Parity())
	}
	for i, out := range parity {
		if len(out) != size {
			return fmt.Errorf("%w: parity %d has %d bytes, want %d", ErrShareSize, i, len(out), size)
		}
	}
	m := len(parity)
	for j, s := range sources {
		col := c.parityCols[j*m : (j+1)*m]
		if j == 0 {
			gf256.MulSliceN(col, s, parity)
		} else {
			gf256.AddMulSliceN(col, s, parity)
		}
	}
	return nil
}

// Decode reconstructs the k source shares from any k (or more) of the n
// encoded shares. The have map is keyed by share index (0..n-1). Extra shares
// beyond k are ignored. The returned slice has exactly k entries in source
// order: surviving data shares are copied, and the missing ones are computed
// by ReconstructInto, the one decode kernel.
func (c *Coder) Decode(have map[int][]byte) ([][]byte, error) {
	k, n := c.params.K, c.params.N
	if len(have) < k {
		return nil, fmt.Errorf("%w: have %d of %d required", ErrNotEnoughShares, len(have), k)
	}
	for idx := range have {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrShareIndex, idx, n)
		}
	}
	// Choose the first k available indices in ascending order, preferring data
	// shares so that the decode matrix is as close to the identity as
	// possible; every surviving data share is then among the chosen.
	chosen := make([]int, 0, k)
	shares := make([][]byte, 0, k)
	for idx := 0; idx < n && len(chosen) < k; idx++ {
		if s, ok := have[idx]; ok {
			chosen, shares = append(chosen, idx), append(shares, s)
		}
	}
	out := make([][]byte, k)
	var rows []int
	var outs [][]byte
	for i := 0; i < k; i++ {
		if s, ok := have[i]; ok {
			out[i] = append([]byte(nil), s...)
			continue
		}
		out[i] = make([]byte, len(shares[0]))
		rows, outs = append(rows, i), append(outs, out[i])
	}
	if err := c.ReconstructInto(chosen, shares, rows, outs); err != nil {
		return nil, err
	}
	return out, nil
}

// ReconstructInto computes the source rows listed in rows from k received
// shares, writing source row rows[i] into outs[i]: the allocation-free decode
// kernel. chosen holds the k distinct share indices (0..n-1) and shares[j] the
// share received at index chosen[j]; every share and every output must have
// the same non-zero length. Only the requested rows are computed, so a group
// that lost one data share costs one row of work, not k.
//
// The k×k submatrix of the generator selected by chosen is inverted in
// pooled matrices, then the multiply is the source-major loop
// EncodeParityInto runs: each received share streams once through a column of
// inverse coefficients into every output, the first overwriting (MulSliceN)
// and the rest accumulating (AddMulSliceN).
func (c *Coder) ReconstructInto(chosen []int, shares [][]byte, rows []int, outs [][]byte) error {
	k, n := c.params.K, c.params.N
	if len(chosen) != k || len(shares) != k {
		return fmt.Errorf("%w: have %d shares for %d indices, need %d", ErrNotEnoughShares, len(shares), len(chosen), k)
	}
	if len(rows) != len(outs) {
		return fmt.Errorf("%w: %d rows for %d outputs", ErrShareSize, len(rows), len(outs))
	}
	size := len(shares[0])
	for j, s := range shares {
		if chosen[j] < 0 || chosen[j] >= n {
			return fmt.Errorf("%w: %d not in [0,%d)", ErrShareIndex, chosen[j], n)
		}
		if len(s) == 0 || len(s) != size {
			return fmt.Errorf("%w: share %d has %d bytes, want %d", ErrShareSize, chosen[j], len(s), size)
		}
	}
	for i, r := range rows {
		if r < 0 || r >= k {
			return fmt.Errorf("%w: source row %d not in [0,%d)", ErrShareIndex, r, k)
		}
		if len(outs[i]) != size {
			return fmt.Errorf("%w: output %d has %d bytes, want %d", ErrShareSize, r, len(outs[i]), size)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	sub := gf256.GetMatrix(k, k)
	defer gf256.PutMatrix(sub)
	if err := c.enc.SelectRowsInto(chosen, sub); err != nil {
		return fmt.Errorf("fec: decode matrix selection failed: %w", err)
	}
	inv := gf256.GetMatrix(k, k)
	defer gf256.PutMatrix(inv)
	if err := sub.InvertInto(inv); err != nil {
		return fmt.Errorf("fec: decode matrix singular: %w", err)
	}
	var coefs [MaxShares]byte
	for j, s := range shares {
		for i, r := range rows {
			coefs[i] = inv.At(r, j)
		}
		if j == 0 {
			gf256.MulSliceN(coefs[:len(rows)], s, outs)
		} else {
			gf256.AddMulSliceN(coefs[:len(rows)], s, outs)
		}
	}
	return nil
}
