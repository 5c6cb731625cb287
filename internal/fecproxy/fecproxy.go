// Package fecproxy assembles the paper's FEC audio proxy (Figure 6) from the
// generic building blocks: packet-level filters that add forward error
// correction to an outgoing stream and reconstruct lost packets on the
// receiving side. Both are ordinary chain filters, so they can be inserted
// into and removed from a live proxy by the ControlThread or by responder
// raplets exactly as the paper describes.
package fecproxy

import (
	"errors"
	"fmt"
	"sync/atomic"

	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// EncoderFilter groups incoming data packets into FEC blocks and emits the
// data plus parity packets, the "FEC Encoder" stage of Figure 6.
//
// The stage body is a frame function: frames arrive as pooled buffers, are
// grouped as raw frames, re-stamped in place, and handed on as the very
// buffers they arrived in; the parity frames are encoded directly into pooled
// buffers (see fec.FrameEncoder). The steady-state data path performs no heap
// allocations, and in the engine's inline trunk path no copies of data
// frames either.
type EncoderFilter struct {
	*filter.Base

	params  fec.Params
	dataIn  atomic.Uint64
	dataOut atomic.Uint64
	parity  atomic.Uint64
}

// NewEncoderFilter returns an encoder filter using the given (n,k) code.
// streamID is stamped on emitted packets. groups, when not nil, is the
// stream's group numbering, shared by every encoder that ever serves it (see
// fec.FrameEncoder.NumberGroupsFrom); nil numbers this encoder's groups from
// 0.
func NewEncoderFilter(name string, params fec.Params, streamID uint32, groups *atomic.Uint32) (*EncoderFilter, error) {
	coder, err := fec.CoderFor(params)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = "fec-encoder" + params.String()
	}
	ef := &EncoderFilter{params: params}
	k, n := params.K, params.N
	enc := fec.NewFrameEncoder(coder, streamID)
	enc.NumberGroupsFrom(groups)
	// flush emits a partially filled group as plain data frames, at end of
	// stream, when the stage leaves a live chain, and ahead of control frames.
	flush := func(emit func(*packet.Buf)) error {
		held := uint64(enc.Pending())
		if err := enc.FlushBufs(emit); err != nil {
			return err
		}
		ef.dataOut.Add(held)
		return nil
	}
	ef.Base = filter.NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		if err := filter.CheckFrame(b); err != nil {
			return err
		}
		// Parity and control packets pass through untouched; only data
		// packets are (re)grouped into FEC blocks. Control packets act as
		// group barriers: a partially filled group is flushed (without
		// parity) ahead of them, so an in-band marker never overtakes data
		// the encoder was still holding — stream position stays meaningful
		// across the filter.
		if kind := packet.FrameKind(b.B); kind != packet.KindData {
			if kind == packet.KindControl {
				if err := flush(emit); err != nil {
					b.Release()
					return err
				}
			}
			emit(b)
			return nil
		}
		ef.dataIn.Add(1)
		full, err := enc.Add(b)
		if errors.Is(err, fec.ErrShareSize) {
			return fmt.Errorf("fecproxy: encode: %w: %w", filter.ErrBadFrame, err)
		}
		if err != nil {
			return fmt.Errorf("fecproxy: encode: %w", err)
		}
		if full {
			if err := enc.EncodeBufs(emit); err != nil {
				return fmt.Errorf("fecproxy: encode: %w", err)
			}
			ef.dataOut.Add(uint64(k))
			ef.parity.Add(uint64(n - k))
		}
		return nil
	}, flush)
	return ef, nil
}

// Params returns the encoder's code parameters.
func (ef *EncoderFilter) Params() fec.Params { return ef.params }

// Stats returns the number of data packets consumed, data packets emitted and
// parity packets emitted.
func (ef *EncoderFilter) Stats() (dataIn, dataOut, parity uint64) {
	return ef.dataIn.Load(), ef.dataOut.Load(), ef.parity.Load()
}

// Overhead returns the observed bandwidth expansion (emitted / consumed).
func (ef *EncoderFilter) Overhead() float64 {
	dataIn, dataOut, parity := ef.Stats()
	if dataIn == 0 {
		return 1
	}
	return float64(dataOut+parity) / float64(dataIn)
}

// DecoderFilter reassembles FEC blocks and reconstructs missing data packets,
// the "FEC Decoder" stage of Figure 6. Parity packets are consumed; only data
// packets (original or reconstructed) are forwarded downstream.
//
// The stage body is a frame function over fec.FrameDecoder: intact data
// frames go on as the buffers they arrived in, repaired ones are decoded into
// pooled frame buffers, and no share is ever unmarshaled into a packet, so the
// steady-state decode path performs no heap allocations. A share the decoder
// refuses — a duplicate, one whose header disagrees with its group, one that
// makes its group undecodable — is dropped as a filter.ErrBadFrame and
// counted through the stage's OnDrop hook: any sender can produce those, and
// failing the stage would let one datagram take the whole stream down.
type DecoderFilter struct {
	*filter.Base

	dec     *fec.FrameDecoder
	trace   *metrics.TraceRecorder
	repairs *atomic.Uint64
	// emit is the chain's emit for the frame in flight and forward the bound
	// method handed to the decoder in its place; keys collects the trace keys
	// of what one frame released.
	emit    func(*packet.Buf)
	forward func(*packet.Buf)
	keys    []uint64

	received      atomic.Uint64
	reconstructed atomic.Uint64
	forwarded     atomic.Uint64
	dropped       atomic.Uint64
}

// NewDecoderFilter returns a decoder filter. trace may be nil; when provided,
// every forwarded packet's outcome is recorded for Figure 7-style series.
// repairs may be nil; when provided, every reconstructed packet is also added
// to it, so an owner's repair count outlives the stage.
func NewDecoderFilter(name string, trace *metrics.TraceRecorder, repairs *atomic.Uint64) *DecoderFilter {
	if name == "" {
		name = "fec-decoder"
	}
	df := &DecoderFilter{dec: fec.NewFrameDecoder(0), trace: trace, repairs: repairs}
	df.forward = df.forwardFrame
	df.Base = filter.NewFrame(name, df.decode, func(func(*packet.Buf)) error {
		// Held shares are copies only a repair could use; nothing is owed.
		df.dec.Discard()
		return nil
	})
	return df
}

// decode is the stage's frame function.
func (df *DecoderFilter) decode(b *packet.Buf, emit func(*packet.Buf)) error {
	if err := filter.CheckFrame(b); err != nil {
		return err
	}
	switch packet.FrameKind(b.B) {
	case packet.KindData:
		df.received.Add(1)
	default:
		if _, _, _, n := packet.FrameBlock(b.B); n == 0 {
			b.Release() // forward only data: a blockless non-data frame ends here
			return nil
		}
	}
	before := df.dec.Recovered()
	df.emit, df.keys = emit, df.keys[:0]
	err := df.dec.Add(b, df.forward)
	df.emit = nil
	repaired := df.dec.Recovered() - before
	if repaired != 0 {
		df.reconstructed.Add(repaired)
		if df.repairs != nil {
			df.repairs.Add(repaired)
		}
	}
	if err != nil {
		df.dropped.Add(1)
		return fmt.Errorf("fecproxy: decode: %w: %w", filter.ErrBadFrame, err)
	}
	// The decoder emits a frame's intact data first and its group's repairs
	// after it, so the last `repaired` frames are the reconstructed ones.
	for i, key := range df.keys {
		outcome := metrics.OutcomeReceived
		if uint64(len(df.keys)-i) <= repaired {
			outcome = metrics.OutcomeReconstructed
		}
		df.trace.Record(key, outcome)
	}
	return nil
}

// forwardFrame carries one decoder output downstream.
func (df *DecoderFilter) forwardFrame(b *packet.Buf) {
	df.forwarded.Add(1)
	if df.trace != nil {
		df.keys = append(df.keys, FrameTraceKey(b.B))
	}
	df.emit(b)
}

// FrameTraceKey derives a stable per-packet key from a marshaled frame's
// block coordinates when it carries any, falling back to its sequence number
// for frames outside an FEC block. The frame must already be validated.
func FrameTraceKey(frame []byte) uint64 {
	if group, index, k, n := packet.FrameBlock(frame); n > 0 {
		return uint64(group)*uint64(k) + uint64(index)
	}
	return packet.FrameSeq(frame)
}

// Stats returns the decoder's packet accounting: data packets received off
// the network, packets reconstructed from parity, packets forwarded, and
// shares dropped because the decoder could not accept them (duplicates,
// group-parameter mismatches, undecodable groups).
func (df *DecoderFilter) Stats() (received, reconstructed, forwarded, dropped uint64) {
	return df.received.Load(), df.reconstructed.Load(), df.forwarded.Load(), df.dropped.Load()
}

// Held returns how many share buffers the decoder holds for groups it may
// still repair. Call it from the goroutine that drives the stage's chain, or
// once the stage has left it.
func (df *DecoderFilter) Held() int { return df.dec.Held() }

var (
	_ filter.Filter = (*EncoderFilter)(nil)
	_ filter.Filter = (*DecoderFilter)(nil)
)
