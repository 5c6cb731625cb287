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
	"sync"
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
// streamID is stamped on emitted packets.
func NewEncoderFilter(name string, params fec.Params, streamID uint32) (*EncoderFilter, error) {
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
type DecoderFilter struct {
	*filter.Base

	mu    sync.Mutex
	dec   *fec.BlockDecoder
	trace *metrics.TraceRecorder

	received      uint64
	reconstructed uint64
	forwarded     uint64
	dropped       uint64
	onDrop        func()
}

// NewDecoderFilter returns a decoder filter. trace may be nil; when provided,
// every forwarded packet's outcome is recorded for Figure 7-style series.
func NewDecoderFilter(name string, trace *metrics.TraceRecorder) *DecoderFilter {
	if name == "" {
		name = "fec-decoder"
	}
	df := &DecoderFilter{dec: fec.NewBlockDecoder(0), trace: trace}
	df.Base = filter.NewPacketFunc(name, func(p *packet.Packet) ([]*packet.Packet, error) {
		df.mu.Lock()
		defer df.mu.Unlock()
		if p.Kind == packet.KindData {
			df.received++
		}
		before := df.dec.Recovered()
		outs, err := df.dec.Add(p)
		if err != nil {
			// Every decode error is a property of the share that just arrived
			// — a duplicate, one whose header disagrees with its group, one
			// that makes the group undecodable. Any sender can produce those,
			// so the share is dropped and counted; failing the stage would let
			// one datagram take the whole stream down.
			df.dropped++
			if df.onDrop != nil {
				df.onDrop()
			}
			return nil, nil
		}
		newlyRecovered := df.dec.Recovered() - before
		df.reconstructed += newlyRecovered
		// Forward only data packets; parity has served its purpose.
		forward := outs[:0]
		for _, op := range outs {
			if op.Kind == packet.KindData {
				forward = append(forward, op)
			}
		}
		df.forwarded += uint64(len(forward))
		if df.trace != nil {
			for _, op := range forward {
				// The only packets in the output that are not the input packet
				// itself are the ones the decoder reconstructed from parity.
				outcome := metrics.OutcomeReceived
				if op != p {
					outcome = metrics.OutcomeReconstructed
				}
				df.trace.Record(traceKey(op), outcome)
			}
		}
		return forward, nil
	}, nil)
	return df
}

// traceKey derives a stable per-packet key from block coordinates when
// available, falling back to the sequence number for non-FEC packets.
func traceKey(p *packet.Packet) uint64 {
	if p.IsFEC() {
		return uint64(p.Group)*uint64(p.K) + uint64(p.Index)
	}
	return p.Seq
}

// OnDrop registers fn to run (under the decoder's lock) for every share the
// decoder drops; the engine folds it into the owning session's drop counter.
// Call before the filter carries traffic.
func (df *DecoderFilter) OnDrop(fn func()) {
	df.mu.Lock()
	df.onDrop = fn
	df.mu.Unlock()
}

// Stats returns the decoder's packet accounting: data packets received off
// the network, packets reconstructed from parity, packets forwarded, and
// shares dropped because the decoder could not accept them (duplicates,
// group-parameter mismatches, undecodable groups).
func (df *DecoderFilter) Stats() (received, reconstructed, forwarded, dropped uint64) {
	df.mu.Lock()
	defer df.mu.Unlock()
	return df.received, df.reconstructed, df.forwarded, df.dropped
}

var (
	_ filter.Filter = (*EncoderFilter)(nil)
	_ filter.Filter = (*DecoderFilter)(nil)
)
