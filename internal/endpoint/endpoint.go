// Package endpoint provides the EndPoint stages from the paper: special
// filters that move data between the proxy's internal detachable streams and
// the outside world (network sockets, files, or any io.Reader/io.Writer).
// Each endpoint runs its own pump goroutine, so two endpoints plus an empty
// chain form the paper's "null proxy" that simply forwards data. They bracket
// filter.Chain in stream mode, the paper's figures and bench/layers; the
// engine's FrameChain needs no endpoints.
package endpoint

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// Reader is an input endpoint: it pumps bytes from an external source into
// the chain through its Out() stream. Its In() stream is unused.
type Reader struct {
	*filter.Base
	src    io.Reader
	closer io.Closer
}

// NewReader returns an input endpoint named name reading from src. If src
// also implements io.Closer it is closed when the endpoint stops.
func NewReader(name string, src io.Reader) *Reader {
	if name == "" {
		name = "endpoint-reader"
	}
	r := &Reader{src: src}
	if c, ok := src.(io.Closer); ok {
		r.closer = c
	}
	r.Base = filter.New(name, func(_ io.Reader, w io.Writer) error {
		_, err := io.Copy(w, src)
		return err
	})
	return r
}

// Stop stops the pump and closes the underlying source when it is closable.
// Closing the source first unblocks a pump stuck in a network Read.
func (r *Reader) Stop() error {
	var closeErr error
	if r.closer != nil {
		if err := r.closer.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			closeErr = err
		}
	}
	if err := r.Base.Stop(); err != nil {
		return err
	}
	return closeErr
}

// Writer is an output endpoint: it pumps bytes from the chain (its In()
// stream) to an external destination. Its Out() stream is unused.
type Writer struct {
	*filter.Base
	dst    io.Writer
	closer io.Closer
}

// NewWriter returns an output endpoint named name writing to dst. If dst also
// implements io.Closer it is closed when the pump finishes.
func NewWriter(name string, dst io.Writer) *Writer {
	if name == "" {
		name = "endpoint-writer"
	}
	w := &Writer{dst: dst}
	if c, ok := dst.(io.Closer); ok {
		w.closer = c
	}
	w.Base = filter.New(name, func(r io.Reader, _ io.Writer) error {
		_, err := io.Copy(dst, r)
		if w.closer != nil {
			if cerr := w.closer.Close(); cerr != nil && err == nil && !errors.Is(cerr, net.ErrClosed) {
				err = cerr
			}
		}
		return err
	})
	return w
}

// Stop stops the pump and closes the underlying destination when closable.
func (w *Writer) Stop() error {
	err := w.Base.Stop()
	if w.closer != nil {
		if cerr := w.closer.Close(); cerr != nil && err == nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr
		}
	}
	return err
}

// DialTCP connects to addr and returns an input endpoint reading from the
// connection and an output endpoint writing to it, named after the address.
func DialTCP(addr string, timeout time.Duration) (*Reader, *Writer, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, fmt.Errorf("endpoint: dial %s: %w", addr, err)
	}
	return NewReader("tcp-in:"+addr, conn), NewWriter("tcp-out:"+addr, conn), nil
}

// Pair wraps a single bidirectional connection as one input and one output
// endpoint sharing the connection.
func Pair(name string, conn io.ReadWriteCloser) (*Reader, *Writer) {
	return NewReader(name+":in", conn), NewWriter(name+":out", conn)
}

// PacketSource is an input endpoint that frames packets produced by a
// generator function onto the chain. next is called repeatedly; returning
// io.EOF ends the stream cleanly. It is used by workload generators and the
// wireless simulator.
type PacketSource struct {
	*filter.Base
}

// NewPacketSource returns an input endpoint emitting framed packets from next.
func NewPacketSource(name string, next func() (*packet.Packet, error)) *PacketSource {
	if name == "" {
		name = "packet-source"
	}
	ps := &PacketSource{}
	ps.Base = filter.New(name, func(_ io.Reader, w io.Writer) error {
		pw := packet.NewWriter(w)
		for {
			p, err := next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			if err := pw.WritePacket(p); err != nil {
				return err
			}
		}
	})
	return ps
}

// PacketSink is an output endpoint that parses framed packets from the chain
// and hands each one to a callback, used by receivers and by measurement
// collectors in the experiments.
type PacketSink struct {
	*filter.Base

	mu       sync.Mutex
	received uint64
}

// NewPacketSink returns an output endpoint delivering each packet to handle.
// A nil handle simply counts packets.
func NewPacketSink(name string, handle func(*packet.Packet) error) *PacketSink {
	if name == "" {
		name = "packet-sink"
	}
	ps := &PacketSink{}
	ps.Base = filter.New(name, func(r io.Reader, _ io.Writer) error {
		pr := packet.NewReader(r)
		for {
			p, err := pr.ReadPacket()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			ps.mu.Lock()
			ps.received++
			ps.mu.Unlock()
			if handle != nil {
				if herr := handle(p); herr != nil {
					return herr
				}
			}
		}
	})
	return ps
}

// Received returns the number of packets delivered so far.
func (ps *PacketSink) Received() uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.received
}

// Interface compliance.
var (
	_ filter.Filter = (*Reader)(nil)
	_ filter.Filter = (*Writer)(nil)
	_ filter.Filter = (*PacketSource)(nil)
	_ filter.Filter = (*PacketSink)(nil)
)
