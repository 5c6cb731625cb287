package packet

import (
	"sync"
	"sync/atomic"
)

// The engine's steady-state relay path must not allocate per packet, so every
// datagram and frame travels in a pooled Buf. Buffers are drawn from a small
// set of size classes; a request larger than the biggest class falls back to
// a plain allocation that is simply dropped on Release.
var bufClasses = [...]int{512, 2048, 16 * 1024, MaxDatagram}

// MaxDatagram is the largest UDP datagram the proxy engine accepts: a session
// ID, a frame header and a payload of up to 64 KiB. It is also the capacity of
// the largest pooled buffer class.
const MaxDatagram = SessionIDSize + HeaderSize + 64*1024

// Buf is a pooled, reference-counted byte buffer. B is the active region and
// may be re-sliced freely (including advancing its start, e.g. to strip a
// datagram prefix); the full backing storage is retained separately so the
// final Release restores it.
//
// A fresh Buf holds one reference. Retain adds more, letting several
// consumers share the same bytes. Shared holders must treat B as read-only
// (and must not re-slice the shared Buf's B field); each holder calls Release
// exactly once, and the storage returns to its pool only when the last
// reference drops. The engine's delivery tree does not share: it copies a
// trunk frame for every cohort but one, because a cohort's tail may rewrite
// its frame in place (see deliveryTree.dispatch).
type Buf struct {
	B     []byte
	full  []byte
	refs  atomic.Int32
	class int8 // index into bufClasses, -1 when unpooled
}

var bufPools [len(bufClasses)]sync.Pool

func init() {
	for i := range bufPools {
		size := bufClasses[i]
		class := int8(i)
		bufPools[i].New = func() any {
			s := make([]byte, size)
			return &Buf{B: s, full: s, class: class}
		}
	}
}

// GetBuf returns a pooled buffer whose B has length exactly n, holding one
// reference. Requests beyond the largest size class are served by a one-off
// allocation.
func GetBuf(n int) *Buf {
	for i, size := range bufClasses {
		if n <= size {
			b := bufPools[i].Get().(*Buf)
			b.B = b.full[:n]
			b.refs.Store(1)
			return b
		}
	}
	s := make([]byte, n)
	b := &Buf{B: s, full: s, class: -1}
	b.refs.Store(1)
	return b
}

// GetFrameBuf returns a pooled buffer whose B has length exactly n with
// SessionIDSize bytes of headroom in front of it: a frame built in B can be
// turned into an engine datagram by Unshift, without a copy. Stages that
// originate frames (FEC parity, rewritten payloads) allocate them this way
// so the engine's inline trunk path never has to re-buffer their output.
func GetFrameBuf(n int) *Buf {
	b := GetBuf(SessionIDSize + n)
	b.B = b.B[SessionIDSize:]
	return b
}

// Unshift grows B by n bytes toward the front of the underlying storage — the
// inverse of advancing B's start — and reports whether the storage had that
// much headroom. The recovered bytes hold whatever was there before (a
// received datagram's session-ID prefix, or pool garbage); the caller
// overwrites them. Only the buffer's sole owner may Unshift.
func (b *Buf) Unshift(n int) bool {
	off := cap(b.full) - cap(b.B)
	if n < 0 || off < n || cap(b.B) == 0 || &b.full[off] != &b.B[:1][0] {
		return false // no room, or B no longer views this buffer's own storage
	}
	b.B = b.full[off-n : off+len(b.B)]
	return true
}

// Retain adds n additional references, so n more holders may (and must) call
// Release. It is safe from any goroutine holding a live reference.
func (b *Buf) Retain(n int) {
	if b == nil || n <= 0 {
		return
	}
	b.refs.Add(int32(n))
}

// Refs returns the current reference count (for tests and diagnostics).
func (b *Buf) Refs() int { return int(b.refs.Load()) }

// Release drops one reference; the last drop returns the buffer to its pool.
// Unpooled (oversize) buffers are left for the garbage collector.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	if b.refs.Add(-1) > 0 {
		return
	}
	if b.class < 0 {
		return
	}
	b.B = b.full
	bufPools[b.class].Put(b)
}

// Cap returns the full capacity of the underlying storage, independent of how
// B is currently sliced.
func (b *Buf) Cap() int { return len(b.full) }
