// Package stream keeps the byte pipe the paper's detachable streams were
// built on, without the detaching: one bounded buffer between a writer and a
// reader. The proxy's data path moves whole frames through filter chains and
// never uses it; it is the primitive bench/ times a stream hop on.
package stream

import (
	"errors"
	"io"
	"sync"
)

// DefaultBufferSize is the capacity of the buffer behind a Pipe.
const DefaultBufferSize = 64 * 1024

// ErrClosed is returned for operations on an end of a pipe that was closed.
var ErrClosed = errors.New("stream: closed")

// Pipe returns a connected pair: bytes written to the writer become readable
// from the reader through a DefaultBufferSize buffer. Unlike io.Pipe a write
// only blocks while the buffer is full. Closing the writer lets the reader
// drain what is buffered and then see io.EOF; closing the reader fails later
// writes with io.ErrClosedPipe. Both ends are safe for concurrent use.
func Pipe() (*PipeReader, *PipeWriter) { return pipeSize(DefaultBufferSize) }

// PipeReader is the read end of a Pipe.
type PipeReader struct{ p *pipe }

// PipeWriter is the write end of a Pipe.
type PipeWriter struct{ p *pipe }

// pipe is the ring buffer both ends share.
type pipe struct {
	mu      sync.Mutex
	cond    sync.Cond
	buf     []byte
	start   int // index of the first unread byte
	count   int // unread bytes
	wclosed bool
	rclosed bool
}

func pipeSize(size int) (*PipeReader, *PipeWriter) {
	p := &pipe{buf: make([]byte, size)}
	p.cond.L = &p.mu
	return &PipeReader{p}, &PipeWriter{p}
}

// Write copies all of b into the pipe, blocking while the buffer is full.
func (w *PipeWriter) Write(b []byte) (int, error) {
	p := w.p
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for len(b) > 0 {
		switch {
		case p.rclosed:
			return n, io.ErrClosedPipe
		case p.wclosed:
			return n, ErrClosed
		case p.count == len(p.buf):
			p.cond.Wait()
			continue
		}
		end := (p.start + p.count) % len(p.buf)
		m := copy(p.buf[end:min(len(p.buf), end+len(p.buf)-p.count)], b)
		p.count += m
		n += m
		b = b[m:]
		p.cond.Broadcast()
	}
	return n, nil
}

// Close closes the writer. It is idempotent.
func (w *PipeWriter) Close() error {
	w.p.close(&w.p.wclosed)
	return nil
}

// Read copies buffered bytes into b, blocking while none are buffered.
func (r *PipeReader) Read(b []byte) (int, error) {
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.count == 0 || p.rclosed {
		switch {
		case p.rclosed:
			return 0, ErrClosed
		case p.wclosed:
			return 0, io.EOF
		case len(b) == 0:
			return 0, nil
		}
		p.cond.Wait()
	}
	n := copy(b, p.buf[p.start:min(len(p.buf), p.start+p.count)])
	p.start = (p.start + n) % len(p.buf)
	p.count -= n
	p.cond.Broadcast()
	return n, nil
}

// Close closes the reader. It is idempotent.
func (r *PipeReader) Close() error {
	r.p.close(&r.p.rclosed)
	return nil
}

func (p *pipe) close(closed *bool) {
	p.mu.Lock()
	*closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
