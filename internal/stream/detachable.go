// Package stream implements detachable I/O streams, the paper's core
// mechanism for composing proxy filters at run time.
//
// A DetachableWriter (the paper's DetachableOutputStream, "DOS") and a
// DetachableReader (DetachableInputStream, "DIS") are connected in pairs,
// much like io.Pipe: bytes written to the writer become readable from the
// reader through a bounded buffer. Unlike io.Pipe, a connected pair can be
//
//   - paused: new writes block, the buffer is drained by the reader and then
//     both endpoints are detached from one another; and
//   - reconnected: a detached writer/reader can be attached to a different
//     reader/writer, redirecting the byte stream through new code without the
//     cooperation of the original endpoints and without losing or reordering
//     a single byte.
//
// This pause → reconnect → resume protocol is exactly the switching sequence
// the paper's ControlThread uses to insert, delete and reorder filters on a
// live data stream (§4). It serves the goroutine-per-stage filter.Chain —
// stream mode, the paper's figures and bench/layers; the engine runs its
// chains on filter.FrameChain and never builds a stream.
package stream

import (
	"errors"
	"io"
	"sync"
)

// DefaultBufferSize is the capacity of the buffer created by Connect and Pipe
// when no explicit size is given.
const DefaultBufferSize = 64 * 1024

// Errors reported by detachable streams.
var (
	// ErrNotConnected is returned by Write, Flush and Pause when the endpoint
	// has no counterpart.
	ErrNotConnected = errors.New("stream: not connected")
	// ErrAlreadyConnected is returned by Connect when an endpoint is already
	// attached to a counterpart (the paper's "Already connected!" condition).
	ErrAlreadyConnected = errors.New("stream: already connected")
	// ErrClosed is returned for operations on a closed endpoint.
	ErrClosed = errors.New("stream: closed")
)

// errInterrupted is an internal sentinel: the link was detached while an I/O
// operation was in progress. The endpoint retries against its new link.
var errInterrupted = errors.New("stream: link detached")

// link is the shared state of one connected writer→reader pairing. The buffer
// lives here (conceptually at the reader side, as in the paper); pause drains
// it completely before the endpoints detach, so no bytes are ever stranded.
type link struct {
	mu   sync.Mutex
	cond *sync.Cond

	buf   []byte // ring buffer storage
	start int    // index of first unread byte
	count int    // number of unread bytes

	writers int  // Write calls currently copying into this link
	pausing bool // a pause is in progress: new writes divert, reads drain
	// handed is true from the moment a read returns bytes to the consumer
	// until the consumer comes back for more. A pause's drain is not
	// complete while bytes are handed out: the consumer may still be
	// transforming them, and detaching (then stopping) it there would lose
	// data the stream had already accepted. Tracking the hand-off under the
	// link mutex makes drain-complete and consumer-busy a single atomic
	// judgment.
	handed   bool
	detached bool  // the pair has been split; both sides must renegotiate
	wclosed  bool  // writer closed: reader sees werr (or io.EOF) after drain
	rclosed  bool  // reader closed: writer sees io.ErrClosedPipe
	werr     error // error delivered to the reader after the buffer drains
}

func newLink(size int) *link {
	if size <= 0 {
		size = DefaultBufferSize
	}
	l := &link{buf: make([]byte, size)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// write copies all of p into the buffer, blocking while the buffer is full.
// It returns errInterrupted when the link is detached before the call begins
// copying, so the caller can retry against its new link. A write that has
// already started is allowed to finish even while a Pause is draining the
// link: this keeps a single Write call atomic with respect to filter
// insertion, which is what lets filters be spliced in at message boundaries
// (the paper's "frame boundary" requirement) simply by writing each frame
// with one Write call.
func (l *link) write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.detached {
		return 0, errInterrupted
	}
	l.writers++
	defer func() {
		l.writers--
		l.cond.Broadcast()
	}()
	written := 0
	for len(p) > 0 {
		switch {
		case l.rclosed:
			return written, io.ErrClosedPipe
		case l.wclosed:
			return written, ErrClosed
		case l.detached:
			return written, errInterrupted
		}
		space := len(l.buf) - l.count
		if space == 0 {
			l.cond.Wait()
			continue
		}
		n := space
		if n > len(p) {
			n = len(p)
		}
		// Copy into the ring buffer, possibly wrapping.
		end := (l.start + l.count) % len(l.buf)
		first := copy(l.buf[end:], p[:n])
		if first < n {
			copy(l.buf, p[first:n])
		}
		l.count += n
		written += n
		p = p[n:]
		l.cond.Broadcast()
	}
	return written, nil
}

// read copies buffered bytes into p, blocking while the buffer is empty. When
// the buffer is empty it returns io.EOF if the writer closed, the writer's
// CloseWithError error if any, or errInterrupted if the link was detached.
// track enables hand-off accounting for loop-shaped consumers (see
// DetachableReader.TrackHandoff).
func (l *link) read(p []byte, track bool) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The consumer coming back for more acknowledges the previous hand-off:
	// everything it was given has been transformed and pushed on (or
	// deliberately retained as filter state).
	if l.handed {
		l.handed = false
		l.cond.Broadcast()
	}
	for l.count == 0 {
		switch {
		case l.rclosed:
			return 0, ErrClosed
		case l.wclosed:
			if l.werr != nil {
				return 0, l.werr
			}
			return 0, io.EOF
		case l.detached:
			return 0, errInterrupted
		}
		if len(p) == 0 {
			return 0, nil
		}
		l.cond.Wait()
	}
	n := l.count
	if n > len(p) {
		n = len(p)
	}
	first := copy(p[:n], l.buf[l.start:min(l.start+n, len(l.buf))])
	if first < n {
		copy(p[first:n], l.buf)
	}
	l.start = (l.start + n) % len(l.buf)
	l.count -= n
	l.handed = track
	l.cond.Broadcast()
	return n, nil
}

// available returns the number of buffered, unread bytes.
func (l *link) available() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// drainAndDetach implements the paper's pause(): let any in-flight write
// finish, wait until the reader has consumed every buffered byte — and come
// back for more, proving the consumed bytes were pushed downstream rather
// than still sitting mid-transform — then mark the link detached and wake
// all waiters. New writes are held off at the DetachableWriter level by the
// paused flag set before this is called.
func (l *link) drainAndDetach() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pausing = true
	l.cond.Broadcast()
	for (l.count > 0 || l.writers > 0 || l.handed) && !l.rclosed && !l.wclosed {
		l.cond.Wait()
	}
	l.detached = true
	l.cond.Broadcast()
}

// waitDrained blocks until the buffer is empty or an endpoint closes.
func (l *link) waitDrained() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.count > 0 && !l.rclosed && !l.wclosed && !l.detached {
		l.cond.Wait()
	}
}

// closeWriter marks the writer side closed. The reader still drains buffered
// bytes and then observes err (io.EOF when err is nil).
func (l *link) closeWriter(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wclosed = true
	l.werr = err
	l.cond.Broadcast()
}

// closeReader marks the reader side closed; writers fail fast.
func (l *link) closeReader() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rclosed = true
	l.cond.Broadcast()
}

// DetachableWriter is the paper's DetachableOutputStream. The zero value is a
// detached, unconnected writer ready for Connect. A DetachableWriter is safe
// for concurrent use, although interleaving of concurrent Writes is
// unspecified, as with any io.Writer.
type DetachableWriter struct {
	mu     sync.Mutex
	cond   *sync.Cond
	link   *link
	sink   *DetachableReader
	paused bool
	closed bool
}

// NewDetachableWriter returns an unconnected writer.
func NewDetachableWriter() *DetachableWriter {
	w := &DetachableWriter{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// DetachableReader is the paper's DetachableInputStream. The zero value is a
// detached, unconnected reader ready for Connect. A DetachableReader is safe
// for concurrent use.
type DetachableReader struct {
	mu     sync.Mutex
	cond   *sync.Cond
	link   *link
	source *DetachableWriter
	paused bool
	closed bool
	// trackHandoff opts this reader into hand-off accounting: a Pause on
	// the connected writer does not complete its drain until this reader,
	// having been handed the final bytes, comes back for more. Correct only
	// for loop-shaped consumers (read → transform → write → read …), which
	// is every filter-chain stage; one-shot consumers would stall Pause.
	trackHandoff bool
}

// TrackHandoff enables hand-off accounting for this reader (see the field
// doc). Call before the reader is used; filter chains enable it on every
// stage input so live splices never detach a stage that still holds
// consumed-but-unemitted bytes.
func (r *DetachableReader) TrackHandoff() {
	r.mu.Lock()
	r.trackHandoff = true
	r.mu.Unlock()
}

// NewDetachableReader returns an unconnected reader.
func NewDetachableReader() *DetachableReader {
	r := &DetachableReader{}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Pipe returns a connected reader/writer pair with the default buffer size,
// analogous to io.Pipe but detachable.
func Pipe() (*DetachableReader, *DetachableWriter) {
	return PipeSize(DefaultBufferSize)
}

// PipeSize returns a connected pair whose buffer holds size bytes.
func PipeSize(size int) (*DetachableReader, *DetachableWriter) {
	r := NewDetachableReader()
	w := NewDetachableWriter()
	if err := ConnectSize(w, r, size); err != nil {
		// Freshly constructed endpoints can always be connected.
		panic("stream: impossible connect failure: " + err.Error())
	}
	return r, w
}

// Connect attaches a writer to a reader with the default buffer size. Both
// endpoints must be unconnected (never connected, or detached by Pause).
func Connect(w *DetachableWriter, r *DetachableReader) error {
	return ConnectSize(w, r, DefaultBufferSize)
}

// ConnectSize attaches a writer to a reader through a buffer of the given
// size. It mirrors the paper's connect()/reconnect(): it fails with
// ErrAlreadyConnected if either endpoint is currently attached, and otherwise
// establishes the pairing and wakes any goroutines blocked in Read or Write
// waiting for a connection.
func ConnectSize(w *DetachableWriter, r *DetachableReader, size int) error {
	if w == nil || r == nil {
		return ErrNotConnected
	}
	// Lock order: writer before reader, everywhere.
	w.mu.Lock()
	defer w.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if w.closed || r.closed {
		return ErrClosed
	}
	if w.link != nil || r.link != nil {
		return ErrAlreadyConnected
	}
	l := newLink(size)
	w.link, w.sink, w.paused = l, r, false
	r.link, r.source, r.paused = l, w, false
	w.cond.Broadcast()
	r.cond.Broadcast()
	return nil
}

// Reconnect is the paper's reconnect(): identical to Connect, provided for
// API fidelity. The endpoints must have been detached (by Pause) first.
func Reconnect(w *DetachableWriter, r *DetachableReader) error {
	return Connect(w, r)
}

// detachPair performs the shared pause work for a connected pair: mark both
// endpoints paused, drain the buffer, split the link, and leave both sides
// unconnected so they can be rewired.
func detachPair(w *DetachableWriter, r *DetachableReader, l *link) {
	// Phase 1: mark the writer paused so writes interrupted by the drain
	// park themselves instead of spinning.
	w.mu.Lock()
	w.paused = true
	w.cond.Broadcast()
	w.mu.Unlock()

	// Phase 2: block new writes and wait for the reader to drain the buffer.
	l.drainAndDetach()

	// Phase 3: detach both endpoints.
	w.mu.Lock()
	if w.link == l {
		w.link, w.sink = nil, nil
	}
	w.cond.Broadcast()
	w.mu.Unlock()

	r.mu.Lock()
	if r.link == l {
		r.link, r.source = nil, nil
		r.paused = true
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Pause stops the stream flowing through this writer: new writes block, the
// connected reader drains every buffered byte, and then both endpoints are
// detached. After Pause returns the writer (and its former reader) can be
// Reconnected to other endpoints. Pause on an unconnected writer returns
// ErrNotConnected; Pause on a closed writer returns ErrClosed.
func (w *DetachableWriter) Pause() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	l, r := w.link, w.sink
	w.mu.Unlock()
	if l == nil || r == nil {
		return ErrNotConnected
	}
	detachPair(w, r, l)
	return nil
}

// Write implements io.Writer. Writes block while the writer is paused or the
// buffer is full, and resume transparently against the new counterpart after
// a Reconnect, so callers never observe the switch.
func (w *DetachableWriter) Write(p []byte) (int, error) {
	total := 0
	for {
		w.mu.Lock()
		for (w.paused || w.link == nil) && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			w.mu.Unlock()
			return total, ErrClosed
		}
		l := w.link
		w.mu.Unlock()

		n, err := l.write(p)
		total += n
		p = p[n:]
		if err == nil {
			return total, nil
		}
		if !errors.Is(err, errInterrupted) {
			return total, err
		}
		// The link was detached mid-write. Wait until this endpoint has been
		// detached from the stale link (or closed), then retry what is left
		// against the new link.
		w.mu.Lock()
		for w.link == l && !w.paused && !w.closed {
			w.cond.Wait()
		}
		w.mu.Unlock()
	}
}

// Flush blocks until every byte previously written has been consumed by the
// connected reader, mirroring the paper's flush() synchronization. It returns
// ErrNotConnected when the writer has no counterpart.
func (w *DetachableWriter) Flush() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	l := w.link
	w.mu.Unlock()
	if l == nil {
		return ErrNotConnected
	}
	l.waitDrained()
	return nil
}

// Connected reports whether the writer currently has a counterpart.
func (w *DetachableWriter) Connected() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.link != nil
}

// Closed reports whether the writer has been closed (it can never be
// connected again).
func (w *DetachableWriter) Closed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// Paused reports whether the writer is paused (detached by Pause and not yet
// reconnected).
func (w *DetachableWriter) Paused() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.paused
}

// Sink returns the reader this writer is currently connected to, or nil.
func (w *DetachableWriter) Sink() *DetachableReader {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sink
}

// Close closes the writer. The connected reader (if any) drains buffered
// bytes and then observes io.EOF. Close is idempotent.
func (w *DetachableWriter) Close() error {
	return w.CloseWithError(nil)
}

// CloseWithError closes the writer; the connected reader observes err after
// draining (io.EOF when err is nil).
func (w *DetachableWriter) CloseWithError(err error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	l := w.link
	w.cond.Broadcast()
	w.mu.Unlock()
	if l != nil {
		l.closeWriter(err)
	}
	return nil
}

// Pause on the reader defers to the writer side, as DIS.pause() does in the
// paper. It returns ErrNotConnected when the reader has no counterpart.
func (r *DetachableReader) Pause() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	w, l := r.source, r.link
	r.mu.Unlock()
	if w == nil || l == nil {
		return ErrNotConnected
	}
	detachPair(w, r, l)
	return nil
}

// Read implements io.Reader. Reads block while no data is buffered; across a
// Pause/Reconnect the reader transparently continues with data from its new
// counterpart.
func (r *DetachableReader) Read(p []byte) (int, error) {
	for {
		r.mu.Lock()
		for r.link == nil && !r.closed {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return 0, ErrClosed
		}
		l := r.link
		track := r.trackHandoff
		r.mu.Unlock()

		n, err := l.read(p, track)
		if err == nil || !errors.Is(err, errInterrupted) {
			return n, err
		}
		// Link detached beneath us: wait to be rewired, then try again.
		r.mu.Lock()
		for r.link == l && !r.closed {
			r.cond.Wait()
		}
		r.mu.Unlock()
	}
}

// Available returns the number of bytes that can be read without blocking,
// the DIS.available() of the paper. It returns 0 when unconnected.
func (r *DetachableReader) Available() int {
	r.mu.Lock()
	l := r.link
	r.mu.Unlock()
	if l == nil {
		return 0
	}
	return l.available()
}

// Connected reports whether the reader currently has a counterpart.
func (r *DetachableReader) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.link != nil
}

// Closed reports whether the reader has been closed (it can never be
// connected again).
func (r *DetachableReader) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Paused reports whether the reader has been detached by Pause and not yet
// reconnected.
func (r *DetachableReader) Paused() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.paused
}

// Source returns the writer this reader is currently connected to, or nil.
func (r *DetachableReader) Source() *DetachableWriter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.source
}

// Close closes the reader. Subsequent reads return ErrClosed; writes on the
// connected writer fail with io.ErrClosedPipe. Close is idempotent.
func (r *DetachableReader) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	l := r.link
	r.cond.Broadcast()
	r.mu.Unlock()
	if l != nil {
		l.closeReader()
	}
	return nil
}

// Interface compliance checks.
var (
	_ io.Writer      = (*DetachableWriter)(nil)
	_ io.WriteCloser = (*DetachableWriter)(nil)
	_ io.Reader      = (*DetachableReader)(nil)
	_ io.ReadCloser  = (*DetachableReader)(nil)
)
