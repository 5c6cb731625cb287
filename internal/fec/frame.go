package fec

import (
	"encoding/binary"
	"fmt"

	"rapidware/internal/packet"
)

// FrameEncoder is BlockEncoder's allocation-free sibling for the proxy data
// path: it batches marshaled data frames (pooled packet.Bufs straight off a
// packet.Reader) into FEC groups and emits complete wire frames — the k held
// data frames with their block coordinates stamped into their headers in
// place, followed by n-k parity frames built in pooled buffers — without ever
// materializing packet structs or copying payloads it does not have to. All
// share staging and parity buffers come from the packet buffer pool, so a
// steady-state encode touches the allocator not at all. FrameEncoder is not
// safe for concurrent use; wrap it in the encoder filter for pipeline use.
type FrameEncoder struct {
	coder    *Coder
	streamID uint32
	group    uint32
	seq      uint64
	pending  []*packet.Buf // held data frames, len < k between Encode calls

	// Reused scratch for Encode: share views and their pooled backing for the
	// sources, plus the pooled frame buffers the parity shares are encoded
	// directly into.
	sources [][]byte
	staging []*packet.Buf
	parity  [][]byte
	pbufs   []*packet.Buf
}

// NewFrameEncoder returns a frame-level block encoder using the given coder.
// streamID is stamped on every emitted frame.
func NewFrameEncoder(coder *Coder, streamID uint32) *FrameEncoder {
	k, n := coder.Params().K, coder.Params().N
	return &FrameEncoder{
		coder:    coder,
		streamID: streamID,
		pending:  make([]*packet.Buf, 0, k),
		sources:  make([][]byte, k),
		staging:  make([]*packet.Buf, k),
		parity:   make([][]byte, n-k),
		pbufs:    make([]*packet.Buf, n-k),
	}
}

// Params returns the encoder's code parameters.
func (e *FrameEncoder) Params() Params { return e.coder.Params() }

// Pending returns the number of data frames waiting for a full group.
func (e *FrameEncoder) Pending() int { return len(e.pending) }

// Add appends one marshaled data frame to the current group, taking ownership
// of b (it is released when the group is emitted or discarded). It reports
// whether the group is now full, in which case the caller must invoke Encode
// before the next Add.
func (e *FrameEncoder) Add(b *packet.Buf) (full bool, err error) {
	plen := len(b.B) - packet.HeaderSize
	if plen <= 0 {
		b.Release()
		return false, fmt.Errorf("%w: empty payload", ErrShareSize)
	}
	if plen+shareHeaderSize > packet.MaxPayload {
		b.Release()
		return false, fmt.Errorf("%w: payload too large", ErrShareSize)
	}
	e.pending = append(e.pending, b)
	return len(e.pending) == e.coder.Params().K, nil
}

// Encode emits the full group: each held data frame is re-stamped in place
// with its sequence number and block coordinates, the n-k parity frames are
// computed into pooled buffers, and every complete frame is handed to emit in
// index order. The slice passed to emit is only valid for the duration of the
// call. All held buffers are released before Encode returns, success or not.
// It is EncodeBufs for callers that consume bytes rather than buffers.
func (e *FrameEncoder) Encode(emit func(frame []byte) error) error {
	var emitErr error
	err := e.EncodeBufs(func(b *packet.Buf) {
		if emitErr == nil {
			emitErr = emit(b.B)
		}
		b.Release()
	})
	if err != nil {
		return err
	}
	return emitErr
}

// EncodeBufs emits the full group like Encode but hands over the buffers
// themselves: the k held data frames (the very buffers given to Add, stamped
// in place) and n-k parity frames built in pooled frame buffers with
// session-ID headroom. emit takes ownership of each. On error nothing has
// been emitted and every held buffer is released.
func (e *FrameEncoder) EncodeBufs(emit func(*packet.Buf)) error {
	params := e.coder.Params()
	k, n := params.K, params.N
	if len(e.pending) != k {
		e.Discard()
		return fmt.Errorf("%w: group has %d of %d frames", ErrShareSize, len(e.pending), k)
	}
	// Build equal-size shares: 2-byte length prefix + payload, zero padded to
	// the largest payload in the group.
	maxLen := 0
	for _, b := range e.pending {
		if plen := len(b.B) - packet.HeaderSize; plen > maxLen {
			maxLen = plen
		}
	}
	shareSize := maxLen + shareHeaderSize
	for i, b := range e.pending {
		sb := packet.GetBuf(shareSize)
		clear(sb.B)
		plen := len(b.B) - packet.HeaderSize
		binary.BigEndian.PutUint16(sb.B, uint16(plen))
		copy(sb.B[shareHeaderSize:], b.B[packet.HeaderSize:])
		e.staging[i], e.sources[i] = sb, sb.B
	}
	for i := range e.pbufs {
		pb := packet.GetFrameBuf(packet.HeaderSize + shareSize)
		e.pbufs[i], e.parity[i] = pb, pb.B[packet.HeaderSize:]
	}
	err := e.coder.EncodeParityInto(e.sources, e.parity)
	for i, sb := range e.staging {
		sb.Release()
		e.staging[i], e.sources[i] = nil, nil
	}
	if err != nil {
		e.releaseParity()
		e.Discard()
		return fmt.Errorf("fec: encode group %d: %w", e.group, err)
	}
	// Stamp everything before emitting anything, so a header error (there is
	// none a validated group can produce) cannot leave half a group on the
	// wire.
	hdr := packet.Packet{StreamID: e.streamID, Group: e.group, K: uint8(k), N: uint8(n)}
	for i := 0; i < n; i++ {
		b, kind := (*packet.Buf)(nil), packet.KindParity
		if i < k {
			b, kind = e.pending[i], packet.KindData
		} else {
			b = e.pbufs[i-k]
		}
		hdr.Kind, hdr.Index, hdr.Seq = kind, uint8(i), e.seq+uint64(i)
		if err := packet.PutFrameHeader(b.B, &hdr, len(b.B)-packet.HeaderSize); err != nil {
			e.releaseParity()
			e.Discard()
			return err
		}
	}
	e.seq += uint64(n)
	e.group++
	for i, b := range e.pending {
		e.pending[i] = nil
		emit(b)
	}
	e.pending = e.pending[:0]
	for i, pb := range e.pbufs {
		e.pbufs[i], e.parity[i] = nil, nil
		emit(pb)
	}
	return nil
}

// Flush emits a partially filled group as plain stamped data frames without
// parity (parity requires a full group), keeping the stream lossless when it
// ends — or hits an in-band barrier — mid-group. Emitted buffers are released.
func (e *FrameEncoder) Flush(emit func(frame []byte) error) error {
	var emitErr error
	err := e.FlushBufs(func(b *packet.Buf) {
		if emitErr == nil {
			emitErr = emit(b.B)
		}
		b.Release()
	})
	if err != nil {
		return err
	}
	return emitErr
}

// FlushBufs is Flush handing over the held buffers themselves; emit takes
// ownership of each.
func (e *FrameEncoder) FlushBufs(emit func(*packet.Buf)) error {
	if len(e.pending) == 0 {
		return nil
	}
	params := e.coder.Params()
	hdr := packet.Packet{
		StreamID: e.streamID, Kind: packet.KindData,
		Group: e.group, K: uint8(params.K), N: uint8(params.N),
	}
	for i, b := range e.pending {
		hdr.Seq, hdr.Index = e.seq+uint64(i), uint8(i)
		if err := packet.PutFrameHeader(b.B, &hdr, len(b.B)-packet.HeaderSize); err != nil {
			e.Discard()
			return err
		}
	}
	e.seq += uint64(len(e.pending))
	e.group++
	for i, b := range e.pending {
		e.pending[i] = nil
		emit(b)
	}
	e.pending = e.pending[:0]
	return nil
}

// Discard releases any held frames without emitting them, the shutdown path.
func (e *FrameEncoder) Discard() {
	for i, b := range e.pending {
		b.Release()
		e.pending[i] = nil
	}
	e.pending = e.pending[:0]
}

func (e *FrameEncoder) releaseParity() {
	for i, pb := range e.pbufs {
		if pb != nil {
			pb.Release()
			e.pbufs[i], e.parity[i] = nil, nil
		}
	}
}
