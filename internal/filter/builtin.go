package filter

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/packet"
)

// NewNull returns the identity filter: frames pass through unmodified. Two
// endpoints plus a null filter form the paper's "null proxy".
func NewNull(name string) *Base {
	if name == "" {
		name = "null"
	}
	return NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		emit(b)
		return nil
	}, nil)
}

// CountingFilter passes data through unchanged while counting bytes and
// chunks, for monitoring and for the raplet observers.
type CountingFilter struct {
	*Base
	bytes  atomic.Uint64
	chunks atomic.Uint64
}

// NewCounting returns a pass-through filter that counts traffic.
func NewCounting(name string) *CountingFilter {
	if name == "" {
		name = "counting"
	}
	cf := &CountingFilter{}
	cf.Base = NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		cf.bytes.Add(uint64(len(b.B)))
		cf.chunks.Add(1)
		emit(b)
		return nil
	}, nil)
	return cf
}

// Bytes returns the total number of bytes forwarded.
func (cf *CountingFilter) Bytes() uint64 { return cf.bytes.Load() }

// Chunks returns the number of buffers forwarded: frames, or the chunks of a
// raw byte stream (see package endpoint).
func (cf *CountingFilter) Chunks() uint64 { return cf.chunks.Load() }

// ChecksumFilter passes data through while maintaining a CRC-32 of everything
// forwarded, used by integrity tests and the live-insertion experiment.
type ChecksumFilter struct {
	*Base
	mu  sync.Mutex
	crc uint32
	n   uint64
}

// NewChecksum returns a pass-through filter that checksums forwarded bytes.
func NewChecksum(name string) *ChecksumFilter {
	if name == "" {
		name = "checksum"
	}
	cf := &ChecksumFilter{}
	cf.Base = NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		cf.mu.Lock()
		cf.crc = crc32.Update(cf.crc, crc32.IEEETable, b.B)
		cf.n += uint64(len(b.B))
		cf.mu.Unlock()
		emit(b)
		return nil
	}, nil)
	return cf
}

// Sum returns the CRC-32 and byte count of all data forwarded so far.
func (cf *ChecksumFilter) Sum() (crc uint32, n uint64) {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.crc, cf.n
}

// NewRateLimit returns a pass-through filter that shapes throughput to at
// most bytesPerSecond. It models transcoder-style bandwidth reduction for slow
// wireless links when an actual content transcoder is not needed. It paces
// whole frames: each may leave once the bytes before it have drained at the
// rate, with one refill tick (10 ms) of burst, and frames that must wait are
// held in order.
func NewRateLimit(name string, bytesPerSecond int) *Base {
	if name == "" {
		name = fmt.Sprintf("ratelimit-%dBps", bytesPerSecond)
	}
	if bytesPerSecond <= 0 {
		bytesPerSecond = 1
	}
	const burst = 10 * time.Millisecond
	var (
		b    *Base
		held heldFrames
		tat  time.Time // when the bytes booked so far will have drained
	)
	b = NewFrame(name, func(fb *packet.Buf, emit func(*packet.Buf)) error {
		now := b.Now()
		due := tat.Add(-burst)
		if tat.Before(now) {
			tat = now
		}
		tat = tat.Add(time.Duration(len(fb.B)) * time.Second / time.Duration(bytesPerSecond))
		if len(held.q) == 0 && !due.After(now) {
			emit(fb)
			return nil
		}
		held.hold(b, fb, due)
		return nil
	}, held.flush).WithRelease(func(emit func(*packet.Buf)) time.Duration {
		return held.release(b.Now(), emit)
	}, held.len)
	return b
}

// NewDelay returns a pass-through filter that adds a fixed latency to every
// frame, used in experiments to model processing or propagation delay: it
// holds each frame until d after it arrived.
func NewDelay(name string, d time.Duration) *Base {
	if name == "" {
		name = fmt.Sprintf("delay-%s", d)
	}
	var (
		b    *Base
		held heldFrames
	)
	b = NewFrame(name, func(fb *packet.Buf, _ func(*packet.Buf)) error {
		held.hold(b, fb, b.Now().Add(d))
		return nil
	}, held.flush).WithRelease(func(emit func(*packet.Buf)) time.Duration {
		return held.release(b.Now(), emit)
	}, held.len)
	return b
}

// heldFrames is the state of the delay and ratelimit frame forms: the frames
// a stage holds, in arrival order, each with the time it falls due. Due times
// never decrease along the queue.
type heldFrames struct {
	q []heldFrame
}

type heldFrame struct {
	b   *packet.Buf
	due time.Time
}

// hold queues one frame for release at due, or drops it past MaxHeld.
func (h *heldFrames) hold(stage *Base, b *packet.Buf, due time.Time) {
	if len(h.q) >= MaxHeld {
		b.Release()
		stage.CountDrop()
		return
	}
	h.q = append(h.q, heldFrame{b, due})
}

// release emits the frames due by now; see ReleaseFunc.
func (h *heldFrames) release(now time.Time, emit func(*packet.Buf)) time.Duration {
	for len(h.q) > 0 && !h.q[0].due.After(now) {
		b := h.q[0].b
		h.q[0] = heldFrame{}
		h.q = h.q[1:]
		emit(b)
	}
	if len(h.q) == 0 {
		return 0
	}
	return h.q[0].due.Sub(now)
}

// len returns how many frames are held.
func (h *heldFrames) len() int { return len(h.q) }

// flush emits every held frame, due or not.
func (h *heldFrames) flush(emit func(*packet.Buf)) error {
	for _, f := range h.q {
		emit(f.b)
	}
	clear(h.q)
	h.q = h.q[:0]
	return nil
}

// PacketFunc transforms one decoded packet into zero or more packets to
// forward. Returning an empty slice drops the packet; an error wrapping
// ErrBadFrame drops and counts it.
type PacketFunc func(*packet.Packet) ([]*packet.Packet, error)

// NewPacketFunc returns a filter that decodes each frame, applies fn to the
// packet, and re-frames the results. flush, if non-nil, is invoked at the end
// of the stream (and when the stage leaves a live chain) and may emit
// trailing packets (e.g. a partially filled FEC group).
func NewPacketFunc(name string, fn PacketFunc, flush func() []*packet.Packet) *Base {
	if name == "" {
		name = "packetfunc"
	}
	frame := func(b *packet.Buf, emit func(*packet.Buf)) error {
		p, _, err := packet.Unmarshal(b.B)
		if err != nil {
			b.Release()
			return fmt.Errorf("packet: decode frame: %w: %w", ErrBadFrame, err)
		}
		outs, err := fn(p)
		if err != nil {
			b.Release()
			return err
		}
		// A stage that forwards its input keeps the buffer it arrived in
		// (re-encoded in place, in case fn edited the packet); everything else
		// is marshaled into fresh frame buffers.
		if len(outs) == 1 && outs[0] == p && packet.HeaderSize+len(p.Payload) == len(b.B) {
			if err := packet.PutFrameHeader(b.B, p, len(p.Payload)); err != nil {
				b.Release()
				return fmt.Errorf("packet: marshal: %w", err)
			}
			copy(b.B[packet.HeaderSize:], p.Payload)
			emit(b)
			return nil
		}
		b.Release()
		return emitPackets(outs, emit)
	}
	var flushFrames FlushFunc
	if flush != nil {
		flushFrames = func(emit func(*packet.Buf)) error { return emitPackets(flush(), emit) }
	}
	return NewFrame(name, frame, flushFrames)
}

// emitPackets marshals packets into pooled frame buffers and emits them.
func emitPackets(ps []*packet.Packet, emit func(*packet.Buf)) error {
	for _, p := range ps {
		b := packet.GetFrameBuf(packet.HeaderSize + len(p.Payload))
		frame, err := packet.AppendFrame(b.B[:0], p)
		if err != nil {
			b.Release()
			return fmt.Errorf("packet: marshal: %w", err)
		}
		b.B = frame
		emit(b)
	}
	return nil
}
