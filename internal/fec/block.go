package fec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"rapidware/internal/packet"
)

// Block-level errors.
var (
	ErrGroupMismatch = errors.New("fec: packet belongs to a different group or code")
	ErrDuplicate     = errors.New("fec: duplicate share for group")
	ErrUndecodable   = errors.New("fec: group cannot be reconstructed")
)

// shareHeaderSize is the per-share prefix recording the original payload
// length, required because packets in a group may have different sizes and
// erasure coding needs equal-size shares.
const shareHeaderSize = 2

// BlockEncoder batches outgoing data packets into FEC groups of k packets and
// emits, for every full group, the k data packets (annotated with block
// coordinates) followed by n-k parity packets. It mirrors the "FEC Encoder"
// component of the paper's Figure 6. BlockEncoder is not safe for concurrent
// use; wrap it in the encoder filter for pipeline use.
type BlockEncoder struct {
	coder    *Coder
	streamID uint32
	group    uint32
	seq      uint64
	pending  []*packet.Packet

	// sources/staging are reused scratch for flushGroup: sources holds the
	// share views handed to the coder, staging the pooled buffers backing
	// them.
	sources [][]byte
	staging []*packet.Buf
}

// NewBlockEncoder returns a block encoder using the given coder. streamID is
// stamped on every emitted packet.
func NewBlockEncoder(coder *Coder, streamID uint32) *BlockEncoder {
	return &BlockEncoder{coder: coder, streamID: streamID}
}

// Params returns the encoder's code parameters.
func (e *BlockEncoder) Params() Params { return e.coder.Params() }

// Add appends a data payload to the current group. When the group reaches k
// packets, Add returns the full set of k data packets plus n-k parity packets
// for transmission; otherwise it returns nil.
func (e *BlockEncoder) Add(payload []byte) ([]*packet.Packet, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrShareSize)
	}
	if len(payload)+shareHeaderSize > packet.MaxPayload {
		return nil, fmt.Errorf("%w: payload too large", ErrShareSize)
	}
	k := e.coder.Params().K
	p := &packet.Packet{
		Seq:      e.seq,
		StreamID: e.streamID,
		Kind:     packet.KindData,
		Group:    e.group,
		Index:    uint8(len(e.pending)),
		K:        uint8(k),
		N:        uint8(e.coder.Params().N),
		Payload:  append([]byte(nil), payload...),
	}
	e.seq++
	e.pending = append(e.pending, p)
	if len(e.pending) < k {
		return nil, nil
	}
	return e.flushGroup()
}

// Flush completes a partially filled group by padding it with empty
// zero-length markers is NOT supported by the code; instead Flush emits the
// pending data packets without parity (parity requires a full group). It
// returns the pending packets, which keeps the stream lossless when it ends
// mid-group.
func (e *BlockEncoder) Flush() []*packet.Packet {
	out := e.pending
	e.pending = nil
	if len(out) > 0 {
		e.group++
	}
	return out
}

// Pending returns the number of data packets waiting for a full group.
func (e *BlockEncoder) Pending() int { return len(e.pending) }

func (e *BlockEncoder) flushGroup() ([]*packet.Packet, error) {
	params := e.coder.Params()
	k, n := params.K, params.N
	// Build equal-size shares: 2-byte length prefix + payload, zero padded to
	// the largest payload in the group.
	maxLen := 0
	for _, p := range e.pending {
		if len(p.Payload) > maxLen {
			maxLen = len(p.Payload)
		}
	}
	shareSize := maxLen + shareHeaderSize
	// The source shares are scratch space that dies with this call, so stage
	// them in pooled buffers. Parity shares are retained by the emitted
	// packets and must be allocated.
	if e.sources == nil {
		e.sources = make([][]byte, k)
		e.staging = make([]*packet.Buf, k)
	}
	for i, p := range e.pending {
		b := packet.GetBuf(shareSize)
		clear(b.B)
		binary.BigEndian.PutUint16(b.B, uint16(len(p.Payload)))
		copy(b.B[shareHeaderSize:], p.Payload)
		e.staging[i] = b
		e.sources[i] = b.B
	}
	// Parity payloads escape into the emitted packets, so they cannot come
	// from the buffer pool — but one backing slab sliced n-k ways costs one
	// allocation instead of n-k.
	slab := make([]byte, (n-k)*shareSize)
	parity := make([][]byte, n-k)
	for i := range parity {
		parity[i] = slab[i*shareSize : (i+1)*shareSize : (i+1)*shareSize]
	}
	err := e.coder.EncodeParityInto(e.sources, parity)
	for i, b := range e.staging {
		b.Release()
		e.staging[i], e.sources[i] = nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fec: encode group %d: %w", e.group, err)
	}
	out := make([]*packet.Packet, 0, n)
	out = append(out, e.pending...)
	for i, par := range parity {
		out = append(out, &packet.Packet{
			Seq:      e.seq,
			StreamID: e.streamID,
			Kind:     packet.KindParity,
			Group:    e.group,
			Index:    uint8(k + i),
			K:        uint8(k),
			N:        uint8(n),
			Payload:  par,
		})
		e.seq++
	}
	e.pending = nil
	e.group++
	return out, nil
}

// groupState accumulates shares for one FEC group on the decoding side.
type groupState struct {
	params    Params
	shares    map[int][]byte
	dataSeen  map[int]*packet.Packet // original data packets received directly
	delivered bool
}

// BlockDecoder reassembles FEC groups on the receiving side, mirroring the
// "FEC Decoder" of Figure 6. Data packets are delivered in order per group;
// when packets are missing but at least k shares of the group arrive, the
// missing packets are reconstructed. BlockDecoder is not safe for concurrent
// use.
//
// The proxy's decoder stage runs FrameDecoder instead. BlockDecoder stays as
// the straightforward reference FrameDecoder is differentially tested
// against, and as the oracle for the benchmark generator's erasure fates.
type BlockDecoder struct {
	groups map[uint32]*groupState
	// Recovered counts packets reconstructed from parity rather than received.
	recovered uint64
	// maxGroups bounds memory for groups that never complete.
	maxGroups int
	order     []uint32
}

// NewBlockDecoder returns a decoder retaining state for at most maxGroups
// incomplete groups (older groups are evicted first). maxGroups <= 0 selects
// a reasonable default.
func NewBlockDecoder(maxGroups int) *BlockDecoder {
	if maxGroups <= 0 {
		maxGroups = 64
	}
	return &BlockDecoder{groups: make(map[uint32]*groupState), maxGroups: maxGroups}
}

// Recovered returns how many data packets were reconstructed from parity.
func (d *BlockDecoder) Recovered() uint64 { return d.recovered }

// Add feeds a received packet into the decoder. It returns any data packets
// that become deliverable as a result: the packet itself for ordinary
// arrivals plus reconstructed packets once the group is decodable. Non-FEC
// packets pass straight through.
func (d *BlockDecoder) Add(p *packet.Packet) ([]*packet.Packet, error) {
	if !p.IsFEC() {
		return []*packet.Packet{p}, nil
	}
	params := Params{K: int(p.K), N: int(p.N)}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if int(p.Index) >= params.N || (p.Kind == packet.KindData) != (int(p.Index) < params.K) {
		return nil, fmt.Errorf("%w: %s share at index %d for %s", ErrShareIndex, p.Kind, p.Index, params)
	}
	g, ok := d.groups[p.Group]
	if !ok {
		g = &groupState{params: params, shares: make(map[int][]byte), dataSeen: make(map[int]*packet.Packet)}
		d.groups[p.Group] = g
		d.order = append(d.order, p.Group)
		d.evict()
	}
	if g.params != params {
		return nil, fmt.Errorf("%w: group %d uses %s, packet says %s", ErrGroupMismatch, p.Group, g.params, params)
	}
	if _, dup := g.shares[int(p.Index)]; dup {
		return nil, fmt.Errorf("%w: group %d index %d", ErrDuplicate, p.Group, p.Index)
	}

	var out []*packet.Packet
	if p.Kind == packet.KindData {
		_, alreadyDelivered := g.dataSeen[int(p.Index)]
		g.dataSeen[int(p.Index)] = p
		// Deliver data packets immediately: the stream is isochronous audio in
		// the paper, so we do not delay packets that arrived intact. A packet
		// that was already reconstructed from parity is not delivered twice.
		if !alreadyDelivered {
			out = append(out, p)
		}
		// Store its share form for possible later decoding.
		share := make([]byte, len(p.Payload)+shareHeaderSize)
		binary.BigEndian.PutUint16(share, uint16(len(p.Payload)))
		copy(share[shareHeaderSize:], p.Payload)
		g.shares[int(p.Index)] = share
	} else {
		g.shares[int(p.Index)] = p.Payload
	}

	// Attempt reconstruction when we have k shares and some data is missing.
	if !g.delivered && len(g.shares) >= g.params.K && len(g.dataSeen) < g.params.K {
		// Shares may have unequal sizes because data shares are sized to their
		// own payloads; pad them to the parity share size (parity shares are
		// always the group's maximum size).
		maxSize := 0
		for _, s := range g.shares {
			if len(s) > maxSize {
				maxSize = len(s)
			}
		}
		padded := make(map[int][]byte, len(g.shares))
		for idx, s := range g.shares {
			if len(s) < maxSize {
				ps := make([]byte, maxSize)
				copy(ps, s)
				padded[idx] = ps
			} else {
				padded[idx] = s
			}
		}
		coder, err := CoderFor(g.params)
		if err != nil {
			return nil, err
		}
		sources, err := coder.Decode(padded)
		if err != nil {
			return nil, fmt.Errorf("fec: reconstruct group %d: %w", p.Group, err)
		}
		// Emit reconstructed packets for the data indices we never received,
		// in index order for deterministic delivery.
		missing := make([]int, 0, g.params.K)
		for i := 0; i < g.params.K; i++ {
			if _, ok := g.dataSeen[i]; !ok {
				missing = append(missing, i)
			}
		}
		sort.Ints(missing)
		for _, idx := range missing {
			share := sources[idx]
			if len(share) < shareHeaderSize {
				return nil, fmt.Errorf("%w: reconstructed share %d too short", ErrUndecodable, idx)
			}
			plen := int(binary.BigEndian.Uint16(share))
			if plen > len(share)-shareHeaderSize {
				return nil, fmt.Errorf("%w: reconstructed share %d has invalid length %d", ErrUndecodable, idx, plen)
			}
			rp := &packet.Packet{
				StreamID: p.StreamID,
				Kind:     packet.KindData,
				Group:    p.Group,
				Index:    uint8(idx),
				K:        uint8(g.params.K),
				N:        uint8(g.params.N),
				Payload:  append([]byte(nil), share[shareHeaderSize:shareHeaderSize+plen]...),
			}
			g.dataSeen[idx] = rp
			out = append(out, rp)
			d.recovered++
		}
		g.delivered = true
	}
	return out, nil
}

// evict discards the oldest groups when more than maxGroups are tracked.
func (d *BlockDecoder) evict() {
	for len(d.order) > d.maxGroups {
		oldest := d.order[0]
		d.order = d.order[1:]
		delete(d.groups, oldest)
	}
}

// PendingGroups returns the number of groups currently tracked.
func (d *BlockDecoder) PendingGroups() int { return len(d.groups) }
