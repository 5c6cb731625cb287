package packet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Reader decodes framed packets from an underlying byte stream.
type Reader struct {
	r   *bufio.Reader
	hdr [HeaderSize]byte
}

// NewReader returns a Reader that decodes packets from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64*1024)}
}

// readHeader fills pr.hdr with the next frame header and validates it,
// returning the payload length. It returns io.EOF when the stream ends
// cleanly on a frame boundary.
func (pr *Reader) readHeader() (plen int, err error) {
	if _, err := io.ReadFull(pr.r, pr.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("packet: read header: %w", err)
	}
	// Validate header fields before reading the payload so a corrupted
	// length cannot make us allocate or block on garbage.
	return validateHeader(pr.hdr[:])
}

// ReadFrameBuf reads the next frame into a pooled buffer without decoding it,
// the allocation-free read path of the relay engine. The returned Buf holds
// headroom unused bytes (for a caller-prepended session ID) followed by the
// complete frame; the caller owns the Buf and must Release it. It returns
// io.EOF when the stream ends cleanly on a frame boundary and
// io.ErrUnexpectedEOF when it ends mid-frame.
func (pr *Reader) ReadFrameBuf(headroom int) (*Buf, error) {
	plen, err := pr.readHeader()
	if err != nil {
		return nil, err
	}
	b := GetBuf(headroom + HeaderSize + plen)
	copy(b.B[headroom:], pr.hdr[:])
	if _, err := io.ReadFull(pr.r, b.B[headroom+HeaderSize:]); err != nil {
		b.Release()
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("packet: read payload: %w", err)
	}
	return b, nil
}
