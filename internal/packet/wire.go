package packet

import (
	"encoding/binary"
	"errors"
)

// The multi-session UDP wire format prepends a 4-byte big-endian session ID
// to the existing packet framing, so one datagram is:
//
//	session uint32
//	frame   []byte  (header + payload, exactly as produced by Marshal)
//
// The engine demultiplexes on the session ID without touching the frame.
const SessionIDSize = 4

// ErrShortDatagram is returned by SplitSessionID for datagrams shorter than a
// session ID.
var ErrShortDatagram = errors.New("packet: datagram shorter than session id")

// PutSessionID writes the session ID into the first SessionIDSize bytes of b.
func PutSessionID(b []byte, id uint32) {
	binary.BigEndian.PutUint32(b, id)
}

// AppendSessionID appends the session ID to dst and returns the extended
// slice.
func AppendSessionID(dst []byte, id uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, id)
}

// SplitSessionID splits a datagram into its session ID and the frame bytes
// that follow it.
func SplitSessionID(dgram []byte) (id uint32, frame []byte, err error) {
	if len(dgram) < SessionIDSize {
		return 0, nil, ErrShortDatagram
	}
	return binary.BigEndian.Uint32(dgram), dgram[SessionIDSize:], nil
}

// ErrFrameLength is returned by ValidateFrame when the buffer does not hold
// exactly one complete frame.
var ErrFrameLength = errors.New("packet: frame length mismatch")

// validateHeader checks a frame header's fixed fields and returns the
// payload length it declares. It is shared by every decode surface (the
// streaming Reader, Unmarshal and the engine's datagram gate) so the checks
// cannot drift apart.
func validateHeader(hdr []byte) (plen int, err error) {
	if len(hdr) < HeaderSize {
		return 0, ErrShortBuffer
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, ErrBadVersion
	}
	if !Kind(hdr[3]).Valid() {
		return 0, ErrBadKind
	}
	plen = int(binary.BigEndian.Uint32(hdr[24:]))
	if plen > MaxPayload {
		return 0, ErrPayloadRange
	}
	return plen, nil
}

// ValidateFrame cheaply checks that frame holds exactly one well-formed
// packet frame (header plus full payload) without decoding or allocating.
// The relay engine runs this on every inbound datagram so garbage can be
// dropped before it reaches a session's chain.
func ValidateFrame(frame []byte) error {
	plen, err := validateHeader(frame)
	if err != nil {
		return err
	}
	if len(frame) != HeaderSize+plen {
		return ErrFrameLength
	}
	return nil
}

// FrameKind returns the packet kind a marshaled frame declares. The frame
// must have passed header validation (e.g. come from Reader.ReadFrameBuf).
func FrameKind(frame []byte) Kind { return Kind(frame[3]) }

// FrameSeq returns the sequence number a marshaled frame declares. The frame
// must already be validated.
func FrameSeq(frame []byte) uint64 { return binary.BigEndian.Uint64(frame[4:]) }

// FrameBlock returns the FEC block coordinates a marshaled frame declares:
// its group, its index within the group and the group's (n,k) code, n = 0 on
// frames outside any block. The frame must already be validated.
func FrameBlock(frame []byte) (group uint32, index, k, n uint8) {
	return binary.BigEndian.Uint32(frame[16:]), frame[20], frame[21], frame[22]
}

// FrameStreamID returns the stream ID a marshaled frame declares. The frame
// must already be validated.
func FrameStreamID(frame []byte) uint32 { return binary.BigEndian.Uint32(frame[12:]) }

// PutFrameHeader encodes p's header fields into hdr, declaring a payload of
// plen bytes, without touching the payload region — the in-place sibling of
// AppendFrame for callers that compute (or already hold) the payload directly
// in a pooled frame buffer. p.Payload is ignored.
func PutFrameHeader(hdr []byte, p *Packet, plen int) error {
	if !p.Kind.Valid() {
		return ErrBadKind
	}
	if plen < 0 || plen > MaxPayload {
		return ErrPayloadRange
	}
	if len(hdr) < HeaderSize {
		return ErrShortBuffer
	}
	hdr[0], hdr[1] = magic0, magic1
	hdr[2] = Version
	hdr[3] = byte(p.Kind)
	binary.BigEndian.PutUint64(hdr[4:], p.Seq)
	binary.BigEndian.PutUint32(hdr[12:], p.StreamID)
	binary.BigEndian.PutUint32(hdr[16:], p.Group)
	hdr[20] = p.Index
	hdr[21] = p.K
	hdr[22] = p.N
	hdr[23] = 0
	binary.BigEndian.PutUint32(hdr[24:], uint32(plen))
	return nil
}

// Reframe returns a pooled frame buffer (see GetFrameBuf) carrying frame's
// header and the payload fill appends to dst, an empty slice with room for
// max bytes — how a stage that rewrites payloads (a transcoder, a
// compressor) emits its output without decoding the frame. The header
// declares the new payload's length, and its pad byte is zeroed, as
// AppendFrame writes it. frame must already be validated. A max past
// MaxPayload is refused, and so is a fill that appends more than max bytes.
func Reframe(frame []byte, max int, fill func(dst []byte) []byte) (*Buf, error) {
	if max > MaxPayload {
		return nil, ErrPayloadRange
	}
	b := GetFrameBuf(HeaderSize + max)
	copy(b.B, frame[:HeaderSize])
	payload := fill(b.B[HeaderSize:HeaderSize])
	if len(payload) > max {
		b.Release()
		return nil, ErrShortBuffer // what fill appended lives elsewhere
	}
	b.B = b.B[:HeaderSize+len(payload)]
	b.B[23] = 0
	binary.BigEndian.PutUint32(b.B[24:], uint32(len(payload)))
	return b, nil
}

// AppendFrame appends the wire encoding of p to dst and returns the extended
// slice, allowing callers to marshal into pooled or stack buffers without the
// allocation made by Marshal.
func AppendFrame(dst []byte, p *Packet) ([]byte, error) {
	if !p.Kind.Valid() {
		return dst, ErrBadKind
	}
	if len(p.Payload) > MaxPayload {
		return dst, ErrPayloadRange
	}
	off := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	hdr := dst[off:]
	hdr[0], hdr[1] = magic0, magic1
	hdr[2] = Version
	hdr[3] = byte(p.Kind)
	binary.BigEndian.PutUint64(hdr[4:], p.Seq)
	binary.BigEndian.PutUint32(hdr[12:], p.StreamID)
	binary.BigEndian.PutUint32(hdr[16:], p.Group)
	hdr[20] = p.Index
	hdr[21] = p.K
	hdr[22] = p.N
	hdr[23] = 0
	binary.BigEndian.PutUint32(hdr[24:], uint32(len(p.Payload)))
	return append(dst, p.Payload...), nil
}

// AppendDatagram appends a complete engine datagram (session ID + frame) for
// p to dst.
func AppendDatagram(dst []byte, session uint32, p *Packet) ([]byte, error) {
	return AppendFrame(AppendSessionID(dst, session), p)
}
