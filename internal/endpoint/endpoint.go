// Package endpoint provides the EndPoints from the paper: the stages at either
// end of a filter.Chain that move frames between the outside world and the
// chain. A Reader is a filter.Source and a Writer a filter.Sink; the chain's
// one goroutine calls both, so an endpoint owns no goroutine of its own. Two
// endpoints and an empty chain form the paper's "null proxy".
//
// Input enters a chain one of two ways:
//
//   - framed: the input carries wire-format packet frames and every ReadFrame
//     returns exactly one, read with packet.Reader.ReadFrameBuf — or marshaled
//     from a generator's packets, or handed over whole by a receive function.
//     rapidproxy's stream mode reads this way (NewFrameReader), and so do
//     NewPacketSource and NewUDPSource. Every stage kind accepts framed input.
//   - raw: an unframed byte stream (NewReader) enters as one buffer per Read
//     of the source, whatever its length. Only the kinds that never read a
//     frame header pass such buffers on: null, counting, checksum, delay and
//     ratelimit. Every other kind checks each buffer (filter.CheckFrame) and
//     drops one that is not exactly one frame as a bad frame, counted, so a
//     raw stream through them loses its chunks but never fails the chain.
package endpoint

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// rawChunk is the buffer a raw Reader offers each Read of its source.
const rawChunk = 16 * 1024

// Reader is an input endpoint: a filter.Source handing the chain the frames
// its read function produces.
type Reader struct {
	name   string
	read   func() (*packet.Buf, error)
	closer io.Closer
}

// Writer is an output endpoint: a filter.Sink handing every frame the chain
// emits to its write function, which takes ownership of it.
type Writer struct {
	name   string
	write  func(*packet.Buf) error
	closer io.Closer
}

// NewReader returns an input endpoint named name reading a raw byte stream
// from src, one buffer per Read. If src also implements io.Closer, Close
// closes it.
func NewReader(name string, src io.Reader) *Reader {
	if name == "" {
		name = "endpoint-reader"
	}
	var pending error // what the Read that returned the last data also said
	return newReader(name, src, func() (*packet.Buf, error) {
		for pending == nil {
			b := packet.GetBuf(rawChunk)
			n, err := src.Read(b.B)
			pending = err
			if n > 0 {
				b.B = b.B[:n]
				return b, nil
			}
			b.Release()
		}
		return nil, pending
	})
}

// NewFrameReader returns an input endpoint named name reading wire-format
// frames from src, one per ReadFrame. If src also implements io.Closer, Close
// closes it.
func NewFrameReader(name string, src io.Reader) *Reader {
	if name == "" {
		name = "frame-reader"
	}
	pr := packet.NewReader(src)
	return newReader(name, src, func() (*packet.Buf, error) { return pr.ReadFrameBuf(0) })
}

// NewPacketSource returns an input endpoint framing the packets next
// produces; next returns io.EOF to end the stream. The transcoding example
// and the integration tests feed their pumps with it.
func NewPacketSource(name string, next func() (*packet.Packet, error)) *Reader {
	if name == "" {
		name = "packet-source"
	}
	return newReader(name, nil, func() (*packet.Buf, error) {
		p, err := next()
		if err != nil {
			return nil, err
		}
		b := packet.GetFrameBuf(packet.HeaderSize + len(p.Payload))
		frame, err := packet.AppendFrame(b.B[:0], p)
		if err != nil {
			b.Release()
			return nil, fmt.Errorf("packet: marshal: %w", err)
		}
		b.B = frame
		return b, nil
	})
}

// NewUDPSource returns an input endpoint fed by recv, which blocks until a
// frame is available (its session-ID prefix already stripped) and returns
// io.EOF to end the stream.
func NewUDPSource(name string, recv func() (*packet.Buf, error)) *Reader {
	if name == "" {
		name = "udp-source"
	}
	return newReader(name, nil, recv)
}

func newReader(name string, src io.Reader, read func() (*packet.Buf, error)) *Reader {
	r := &Reader{name: name, read: read}
	r.closer, _ = src.(io.Closer)
	return r
}

// Name implements filter.Source.
func (r *Reader) Name() string { return r.name }

// ReadFrame implements filter.Source.
func (r *Reader) ReadFrame() (*packet.Buf, error) { return r.read() }

// Close implements filter.Source: it closes the underlying source when it is
// closable, which unblocks a network read in progress.
func (r *Reader) Close() error { return closeQuietly(r.closer) }

// NewWriter returns an output endpoint named name writing each frame to dst
// with one Write. If dst also implements io.Closer, Close closes it.
func NewWriter(name string, dst io.Writer) *Writer {
	if name == "" {
		name = "endpoint-writer"
	}
	return newWriter(name, dst, func(b *packet.Buf) error {
		_, err := dst.Write(b.B)
		b.Release()
		return err
	})
}

// NewPacketSink returns an output endpoint decoding each frame and handing
// the packet to handle, used by the transcoding example and the integration
// tests. A nil handle discards them.
func NewPacketSink(name string, handle func(*packet.Packet) error) *Writer {
	if name == "" {
		name = "packet-sink"
	}
	return newWriter(name, nil, func(b *packet.Buf) error {
		p, _, err := packet.Unmarshal(b.B)
		b.Release()
		if err != nil {
			return fmt.Errorf("packet: decode frame: %w", err)
		}
		if handle == nil {
			return nil
		}
		return handle(p)
	})
}

// NewUDPSink returns an output endpoint handing each raw frame to send in a
// pooled Buf with headroom bytes reserved in front of it (room for a
// session-ID prefix). send owns the Buf and must Release it.
func NewUDPSink(name string, headroom int, send func(*packet.Buf) error) *Writer {
	if name == "" {
		name = "udp-sink"
	}
	headroom = max(headroom, 0)
	return newWriter(name, nil, func(b *packet.Buf) error {
		if !b.Unshift(headroom) {
			nb := packet.GetBuf(headroom + len(b.B))
			copy(nb.B[headroom:], b.B)
			b.Release()
			b = nb
		}
		return send(b)
	})
}

func newWriter(name string, dst io.Writer, write func(*packet.Buf) error) *Writer {
	w := &Writer{name: name, write: write}
	w.closer, _ = dst.(io.Closer)
	return w
}

// Name implements filter.Sink.
func (w *Writer) Name() string { return w.name }

// WriteFrame implements filter.Sink.
func (w *Writer) WriteFrame(b *packet.Buf) error { return w.write(b) }

// Close implements filter.Sink: it closes the destination when it is
// closable.
func (w *Writer) Close() error { return closeQuietly(w.closer) }

// closeQuietly closes c, if any; closing what is already closed is not an
// error.
func closeQuietly(c io.Closer) error {
	if c == nil {
		return nil
	}
	if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// DialTCP connects to addr and returns an input endpoint reading the
// connection's raw byte stream and an output endpoint writing to it, named
// after the address.
func DialTCP(addr string, timeout time.Duration) (*Reader, *Writer, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, fmt.Errorf("endpoint: dial %s: %w", addr, err)
	}
	return NewReader("tcp-in:"+addr, conn), NewWriter("tcp-out:"+addr, conn), nil
}

// Pair wraps a single bidirectional connection as one raw input and one
// output endpoint sharing the connection.
func Pair(name string, conn io.ReadWriteCloser) (*Reader, *Writer) {
	return NewReader(name+":in", conn), NewWriter(name+":out", conn)
}

// Interface compliance.
var (
	_ filter.Source = (*Reader)(nil)
	_ filter.Sink   = (*Writer)(nil)
)
