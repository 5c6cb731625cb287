package fec

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

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
// safe for concurrent use; NewEncodeStage wraps it for pipeline use.
type FrameEncoder struct {
	coder    *Coder
	streamID uint32
	group    uint32         // the next group's number, when groups is nil
	groups   *atomic.Uint32 // the shared group numbering; see NumberGroupsFrom
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

// NumberGroupsFrom makes the encoder draw every group's number from groups
// instead of counting its own from 0. Encoders that take turns on one stream
// share one counter, so a fresh encoder never reuses a group number a
// receiver's decoder still remembers for a different code. nil keeps the
// encoder's own count. Call it before the first Add.
func (e *FrameEncoder) NumberGroupsFrom(groups *atomic.Uint32) { e.groups = groups }

// nextGroup hands out the number of the group being emitted.
func (e *FrameEncoder) nextGroup() uint32 {
	if e.groups != nil {
		return e.groups.Add(1) - 1
	}
	e.group++
	return e.group - 1
}

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
		return fmt.Errorf("fec: encode group: %w", err)
	}
	// Stamp everything before emitting anything, so a header error (there is
	// none a validated group can produce) cannot leave half a group on the
	// wire.
	hdr := packet.Packet{StreamID: e.streamID, Group: e.nextGroup(), K: uint8(k), N: uint8(n)}
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

// FlushBufs emits a partially filled group as plain stamped data frames
// without parity (parity requires a full group), keeping the stream lossless
// when it ends — or hits an in-band barrier — mid-group. emit takes ownership
// of each buffer.
func (e *FrameEncoder) FlushBufs(emit func(*packet.Buf)) error {
	if len(e.pending) == 0 {
		return nil
	}
	params := e.coder.Params()
	hdr := packet.Packet{
		StreamID: e.streamID, Kind: packet.KindData,
		Group: e.nextGroup(), K: uint8(params.K), N: uint8(params.N),
	}
	for i, b := range e.pending {
		hdr.Seq, hdr.Index = e.seq+uint64(i), uint8(i)
		if err := packet.PutFrameHeader(b.B, &hdr, len(b.B)-packet.HeaderSize); err != nil {
			e.Discard()
			return err
		}
	}
	e.seq += uint64(len(e.pending))
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

// shareSet is a bitmask over the share indices of one group (n <= 255).
type shareSet [4]uint64

func (s *shareSet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s *shareSet) add(i int)      { s[i>>6] |= 1 << (i & 63) }

// groupSlot is one FEC group a FrameDecoder tracks.
type groupSlot struct {
	group  uint32
	params Params
	have   shareSet // share indices received
	done   shareSet // data indices delivered, received intact or repaired
	haveN  int
	doneN  int
	// open is set while the group may still need a repair. Until then every
	// share it receives is copied into shares (by index; nil where none is
	// held), and size is the largest of them.
	open   bool
	size   int
	shares []*packet.Buf
}

// FrameDecoder is BlockDecoder's allocation-free sibling for the proxy data
// path, the mirror of FrameEncoder: it takes marshaled frames as pooled
// packet.Bufs, forwards intact data frames at once as the very buffers they
// arrived in, and reconstructs a group's missing data frames into pooled
// frame buffers once k of its shares are in.
//
// Groups live in a fixed FIFO ring of slots: a new group takes the oldest
// slot, so memory stays bounded whatever the sender does. A slot copies each
// share it may need into a pooled buffer sized to the share and releases them
// the moment the group can no longer need a repair: all k data shares seen,
// or the group reconstructed. It copies because a data frame goes on
// downstream at once, as the buffer it arrived in, and its next owner may
// rewrite or release it; holding the received frame by reference instead is
// ROADMAP item 6 ("decoder shares by reference"). Only the bitmasks stay, so
// duplicates and late data are still recognised.
//
// A FrameDecoder is not safe for concurrent use; the decoder stage runs it
// under its chain's lock.
type FrameDecoder struct {
	slots     []groupSlot
	head      int // ring position of the oldest tracked group
	count     int // groups tracked
	held      int // share buffers held across all slots
	recovered uint64

	// Reused reconstruction state: the chosen share indices and their
	// bytes, the missing source rows and the frame buffers they are decoded
	// into.
	chosen []int
	src    [][]byte
	rows   []int
	outs   [][]byte
	obufs  []*packet.Buf
}

// NewFrameDecoder returns a frame decoder tracking at most maxGroups groups
// (the oldest is forgotten first); maxGroups <= 0 selects 64, as
// NewBlockDecoder does.
func NewFrameDecoder(maxGroups int) *FrameDecoder {
	if maxGroups <= 0 {
		maxGroups = 64
	}
	return &FrameDecoder{slots: make([]groupSlot, maxGroups)}
}

// Recovered returns how many data frames were reconstructed from parity.
func (d *FrameDecoder) Recovered() uint64 { return d.recovered }

// Held returns the number of share buffers the decoder holds.
func (d *FrameDecoder) Held() int { return d.held }

// Add feeds one validated frame to the decoder and takes ownership of b. It
// emits, in order, b itself when it is data not yet delivered, then every
// data frame its group's repair produced, in index order; emit takes
// ownership of each buffer. A frame outside any block (n = 0) passes straight
// through. A share the decoder cannot accept — bad code parameters, an index
// out of range or of the wrong kind, a duplicate, a code that disagrees with
// its group's, a group that cannot be reconstructed — is released and
// reported as an error, and the decoder carries on. Late data for a repaired
// group is consumed silently.
func (d *FrameDecoder) Add(b *packet.Buf, emit func(*packet.Buf)) error {
	group, index, k, n := packet.FrameBlock(b.B)
	if n == 0 {
		emit(b)
		return nil
	}
	idx, params := int(index), Params{K: int(k), N: int(n)}
	data := packet.FrameKind(b.B) == packet.KindData
	if err := checkShare(params, idx, data); err != nil {
		b.Release()
		return err
	}
	s := d.slot(group, params)
	if s.params != params {
		b.Release()
		return fmt.Errorf("%w: group %d uses %s, share says %s", ErrGroupMismatch, group, s.params, params)
	}
	if s.have.has(idx) {
		b.Release()
		return fmt.Errorf("%w: group %d index %d", ErrDuplicate, group, idx)
	}
	s.have.add(idx)
	s.haveN++
	deliver := data && !s.done.has(idx)
	if deliver {
		s.done.add(idx)
		s.doneN++
	}
	switch {
	case !s.open:
	case s.doneN == params.K:
		d.close(s) // every data share arrived: nothing left to repair
	default:
		d.hold(s, idx, b.B[packet.HeaderSize:], data)
		if s.haveN >= params.K {
			if err := d.reconstruct(s, packet.FrameStreamID(b.B)); err != nil {
				b.Release()
				return err
			}
		}
	}
	if deliver {
		emit(b)
	} else {
		b.Release()
	}
	for i, ob := range d.obufs {
		d.obufs[i] = nil
		emit(ob)
	}
	d.obufs = d.obufs[:0]
	return nil
}

// Discard releases every share buffer the decoder holds and stops repairing
// the groups they belonged to, emitting nothing: the decoder stage's flush,
// run when it leaves a chain or its chain closes. The groups stay tracked, so
// their late data is still delivered once and their duplicates still refused.
func (d *FrameDecoder) Discard() {
	for i := range d.slots {
		if d.slots[i].open {
			d.close(&d.slots[i])
		}
	}
}

// checkShare validates a share's declared block coordinates: data shares sit
// at indices below k, parity at k..n-1.
func checkShare(params Params, idx int, data bool) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if idx >= params.N || data != (idx < params.K) {
		kind := "parity"
		if data {
			kind = "data"
		}
		return fmt.Errorf("%w: %s share at index %d for %s", ErrShareIndex, kind, idx, params)
	}
	return nil
}

// slot returns the tracked group's slot, or a fresh open one taking the
// oldest slot's place when the ring is full.
func (d *FrameDecoder) slot(group uint32, params Params) *groupSlot {
	for i := d.count - 1; i >= 0; i-- { // newest first: shares cluster there
		if s := &d.slots[(d.head+i)%len(d.slots)]; s.group == group {
			return s
		}
	}
	var s *groupSlot
	if d.count < len(d.slots) {
		s = &d.slots[(d.head+d.count)%len(d.slots)]
		d.count++
	} else {
		s = &d.slots[d.head]
		d.head = (d.head + 1) % len(d.slots)
		d.close(s)
	}
	shares := s.shares
	if cap(shares) < params.N {
		shares = make([]*packet.Buf, params.N)
	}
	*s = groupSlot{group: group, params: params, open: true, shares: shares[:params.N]}
	return s
}

// hold copies share idx of an open group into a pooled share buffer: a data
// payload behind its 2-byte length prefix, a parity share as it is.
func (d *FrameDecoder) hold(s *groupSlot, idx int, payload []byte, data bool) {
	off := 0
	if data {
		off = shareHeaderSize
	}
	sb := packet.GetBuf(off + len(payload))
	if data {
		binary.BigEndian.PutUint16(sb.B, uint16(len(payload)))
	}
	copy(sb.B[off:], payload)
	s.shares[idx] = sb
	s.size = max(s.size, len(sb.B))
	d.held++
}

// close releases an open group's share buffers; it needs no repair any more.
func (d *FrameDecoder) close(s *groupSlot) {
	for i, sb := range s.shares {
		if sb != nil {
			sb.Release()
			s.shares[i] = nil
			d.held--
		}
	}
	s.open = false
}

// reconstruct repairs an open group holding k or more shares: its missing
// data rows are decoded straight into pooled frame buffers at HeaderSize-2,
// so each row's 2-byte length prefix lands in header bytes the stamp
// overwrites, and the stamped frames are left in d.obufs. It closes the group,
// success or not.
func (d *FrameDecoder) reconstruct(s *groupSlot, streamID uint32) error {
	defer d.close(s)
	coder, err := CoderFor(s.params)
	if err != nil {
		return err
	}
	k, size := s.params.K, s.size
	// Choose the first k shares held, data first. Shorter shares are zero
	// padded to the group's largest, as the encoder padded them.
	d.chosen, d.src = d.chosen[:0], d.src[:0]
	for i, sb := range s.shares {
		if len(d.chosen) == k {
			break
		}
		if sb == nil {
			continue
		}
		if len(sb.B) < size {
			if cap(sb.B) < size {
				grown := packet.GetBuf(size)
				clear(grown.B[copy(grown.B, sb.B):])
				sb.Release()
				sb, s.shares[i] = grown, grown
			} else {
				n := len(sb.B)
				sb.B = sb.B[:size]
				clear(sb.B[n:])
			}
		}
		d.chosen, d.src = append(d.chosen, i), append(d.src, sb.B)
	}
	d.rows, d.outs, d.obufs = d.rows[:0], d.outs[:0], d.obufs[:0]
	for r := 0; r < k; r++ {
		if !s.done.has(r) {
			ob := packet.GetFrameBuf(packet.HeaderSize - shareHeaderSize + size)
			d.rows = append(d.rows, r)
			d.outs = append(d.outs, ob.B[packet.HeaderSize-shareHeaderSize:])
			d.obufs = append(d.obufs, ob)
		}
	}
	if err := coder.ReconstructInto(d.chosen, d.src, d.rows, d.outs); err != nil {
		d.releaseOuts()
		return fmt.Errorf("fec: reconstruct group %d: %w", s.group, err)
	}
	if size < shareHeaderSize {
		d.releaseOuts()
		return fmt.Errorf("%w: group %d has %d-byte shares, too short for a length", ErrUndecodable, s.group, size)
	}
	hdr := packet.Packet{StreamID: streamID, Kind: packet.KindData, Group: s.group, K: uint8(k), N: uint8(s.params.N)}
	for i, ob := range d.obufs {
		plen := int(binary.BigEndian.Uint16(d.outs[i]))
		if plen > size-shareHeaderSize {
			d.releaseOuts()
			return fmt.Errorf("%w: group %d row %d declares %d bytes in a %d-byte share", ErrUndecodable, s.group, d.rows[i], plen, size)
		}
		ob.B = ob.B[:packet.HeaderSize+plen]
		hdr.Index = uint8(d.rows[i])
		if err := packet.PutFrameHeader(ob.B, &hdr, plen); err != nil {
			d.releaseOuts()
			return err
		}
	}
	for _, r := range d.rows {
		s.done.add(r)
	}
	s.doneN = k
	d.recovered += uint64(len(d.rows))
	return nil
}

// releaseOuts drops the frame buffers of a failed reconstruction.
func (d *FrameDecoder) releaseOuts() {
	for i, ob := range d.obufs {
		ob.Release()
		d.obufs[i] = nil
	}
	d.obufs = d.obufs[:0]
}
