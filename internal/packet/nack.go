package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A NACK is the retransmission half of the engine's feedback wire: a receiver
// that detects gaps in the data sequence sends the missing sequence numbers
// back to the proxy on the same UDP socket the data arrived on. The request
// travels as an ordinary engine datagram — session ID prefix plus one frame —
// whose kind is KindNack, so the engine's datagram gate validates it like any
// other frame before the session's ARQ history answers it with unicast
// retransmissions.
//
// Nack payload layout (big endian):
//
//	count uint16           number of sequence numbers that follow
//	seqs  [count]uint64    the missing sequence numbers
//
// The count is bounded by MaxNackSeqs so a single request cannot demand an
// unbounded retransmission burst; receivers with more gaps than that spread
// them across rounds (the sliding window of arq.Receiver bounds the gap set
// anyway).

// MaxNackSeqs bounds how many sequence numbers one NACK frame may carry.
const MaxNackSeqs = 64

// nackCountSize is the encoded size of the leading count field.
const nackCountSize = 2

// ErrBadNack is returned by ParseNack for frames that are not well-formed
// retransmission requests.
var ErrBadNack = errors.New("packet: malformed nack")

// AppendNackDatagram appends a complete engine NACK datagram (session ID +
// KindNack frame requesting seqs) to dst. seq is the request's own sequence
// number (receivers typically count NACK rounds).
func AppendNackDatagram(dst []byte, session uint32, seq uint64, streamID uint32, seqs []uint64) ([]byte, error) {
	if len(seqs) == 0 || len(seqs) > MaxNackSeqs {
		return nil, fmt.Errorf("%w: %d seqs, want 1..%d", ErrBadNack, len(seqs), MaxNackSeqs)
	}
	payload := binary.BigEndian.AppendUint16(make([]byte, 0, nackCountSize+8*len(seqs)), uint16(len(seqs)))
	for _, s := range seqs {
		payload = binary.BigEndian.AppendUint64(payload, s)
	}
	return AppendFrame(AppendSessionID(dst, session), &Packet{Seq: seq, StreamID: streamID, Kind: KindNack, Payload: payload})
}

// ParseNack decodes the sequence numbers carried by a validated KindNack
// frame (as accepted by ValidateFrame), appending them to dst and returning
// the extended slice. Passing a caller-owned buffer with capacity MaxNackSeqs
// makes the decode allocation-free, so the engine can parse NACKs on its read
// loop.
func ParseNack(frame []byte, dst []uint64) ([]uint64, error) {
	if len(frame) < HeaderSize || Kind(frame[3]) != KindNack {
		return nil, ErrBadNack
	}
	payload := frame[HeaderSize:]
	if len(payload) < nackCountSize {
		return nil, fmt.Errorf("%w: payload %d bytes, want >= %d", ErrBadNack, len(payload), nackCountSize)
	}
	count := int(binary.BigEndian.Uint16(payload))
	if count == 0 || count > MaxNackSeqs {
		return nil, fmt.Errorf("%w: count %d, want 1..%d", ErrBadNack, count, MaxNackSeqs)
	}
	if len(payload) != nackCountSize+8*count {
		return nil, fmt.Errorf("%w: payload %d bytes, want %d", ErrBadNack, len(payload), nackCountSize+8*count)
	}
	for i := 0; i < count; i++ {
		dst = append(dst, binary.BigEndian.Uint64(payload[nackCountSize+8*i:]))
	}
	return dst, nil
}
