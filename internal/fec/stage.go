package fec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// EncodeStage is the paper's "FEC Encoder" filter (Figure 6): it groups
// incoming data frames into FEC blocks and emits the data plus parity frames.
//
// The stage body is a frame function over FrameEncoder: data frames are
// grouped as the buffers they arrived in, re-stamped in place and handed on,
// and the parity frames are encoded directly into pooled buffers. The
// steady-state data path performs no heap allocations, and in the engine's
// inline trunk path no copies of data frames either.
type EncodeStage struct {
	*filter.Base

	params Params
}

// NewEncodeStage returns an encoder stage using the given (n,k) code.
// streamID is stamped on emitted frames. groups, when not nil, is the
// stream's group numbering, shared by every encoder that ever serves it (see
// FrameEncoder.NumberGroupsFrom); nil numbers this encoder's groups from 0.
func NewEncodeStage(name string, params Params, streamID uint32, groups *atomic.Uint32) (*EncodeStage, error) {
	coder, err := CoderFor(params)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = "fec-encoder" + params.String()
	}
	enc := NewFrameEncoder(coder, streamID)
	enc.NumberGroupsFrom(groups)
	// FlushBufs emits a partially filled group as plain data frames, at end
	// of stream, when the stage leaves a live chain, and ahead of control
	// frames.
	base := filter.NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		if err := filter.CheckFrame(b); err != nil {
			return err
		}
		// Parity and control frames pass through untouched; only data frames
		// are (re)grouped into FEC blocks. Control frames act as group
		// barriers: a partially filled group is flushed (without parity)
		// ahead of them, so an in-band marker never overtakes data the
		// encoder was still holding — stream position stays meaningful
		// across the filter.
		if kind := packet.FrameKind(b.B); kind != packet.KindData {
			if kind == packet.KindControl {
				if err := enc.FlushBufs(emit); err != nil {
					b.Release()
					return err
				}
			}
			emit(b)
			return nil
		}
		full, err := enc.Add(b)
		if errors.Is(err, ErrShareSize) {
			return fmt.Errorf("fec: encode: %w: %w", filter.ErrBadFrame, err)
		}
		if err != nil {
			return fmt.Errorf("fec: encode: %w", err)
		}
		if full {
			if err := enc.EncodeBufs(emit); err != nil {
				return fmt.Errorf("fec: encode: %w", err)
			}
		}
		return nil
	}, enc.FlushBufs)
	return &EncodeStage{Base: base, params: params}, nil
}

// Params returns the encoder's code parameters.
func (s *EncodeStage) Params() Params { return s.params }

// NewDecodeStage returns the paper's "FEC Decoder" filter (Figure 6): it
// reassembles FEC blocks and reconstructs missing data frames. Parity frames
// are consumed; only data frames, received or reconstructed, go downstream.
// repairs, when not nil, counts every reconstructed frame, so an owner's
// repair count outlives the stage.
//
// The stage body is a frame function over FrameDecoder: intact data frames go
// on as the buffers they arrived in, repaired ones are decoded into pooled
// frame buffers, and no share is ever unmarshaled into a packet, so the
// steady-state decode path performs no heap allocations. A share the decoder
// refuses — a duplicate, one whose header disagrees with its group, one that
// makes its group undecodable — is dropped as a filter.ErrBadFrame and
// counted through the stage's OnDrop hook: any sender can produce those, and
// failing the stage would let one datagram take the whole stream down.
func NewDecodeStage(name string, repairs *atomic.Uint64) *filter.Base {
	base, _ := newDecodeStage(name, repairs)
	return base
}

// newDecodeStage is NewDecodeStage also returning the stage's decoder, for
// tests that look at what it holds.
func newDecodeStage(name string, repairs *atomic.Uint64) (*filter.Base, *FrameDecoder) {
	if name == "" {
		name = "fec-decoder"
	}
	dec := NewFrameDecoder(0)
	base := filter.NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		if err := filter.CheckFrame(b); err != nil {
			return err
		}
		if packet.FrameKind(b.B) != packet.KindData {
			if _, _, _, n := packet.FrameBlock(b.B); n == 0 {
				b.Release() // forward only data: a blockless non-data frame ends here
				return nil
			}
		}
		before := dec.Recovered()
		err := dec.Add(b, emit)
		if n := dec.Recovered() - before; n != 0 && repairs != nil {
			repairs.Add(n)
		}
		if err != nil {
			return fmt.Errorf("fec: decode: %w: %w", filter.ErrBadFrame, err)
		}
		return nil
	}, func(func(*packet.Buf)) error {
		// Held shares are copies only a repair could use; nothing is owed.
		dec.Discard()
		return nil
	})
	return base, dec
}
