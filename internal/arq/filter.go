package arq

import (
	"container/heap"
	"sync"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// SenderFilter is the compose-plane "arq" stage: a pass-through filter that
// records every data frame it forwards in a bounded ring keyed by sequence
// number. The engine answers KindNack feedback from this history — the
// retransmission path never re-enters the chain, so repairs reach only the
// receiver that asked (unicast), exactly as the paper's ARQ baseline does.
// The hot path adds one mutex-guarded pointer store per data packet; history
// eviction is implicit in the ring overwrite.
type SenderFilter struct {
	*filter.Base

	mu      sync.Mutex
	ring    []*packet.Packet // ring[seq%len] holds the frame iff .Seq == seq
	tracked uint64
	served  uint64
	misses  uint64
}

// NewSenderFilter returns an ARQ history stage keeping the last historyLimit
// data packets available for retransmission (<=0 selects DefaultHistory).
func NewSenderFilter(name string, historyLimit int) *SenderFilter {
	if name == "" {
		name = "arq"
	}
	if historyLimit <= 0 {
		historyLimit = DefaultHistory
	}
	f := &SenderFilter{ring: make([]*packet.Packet, historyLimit)}
	f.Base = filter.NewPacketFunc(name, func(p *packet.Packet) ([]*packet.Packet, error) {
		if p.Kind == packet.KindData {
			f.mu.Lock()
			f.ring[p.Seq%uint64(len(f.ring))] = p
			f.tracked++
			f.mu.Unlock()
		}
		return []*packet.Packet{p}, nil
	}, nil)
	return f
}

// Lookup returns the buffered packet for seq, or nil when the history no
// longer (or never) held it. Ring entries are replaced, never mutated, so the
// returned packet is safe to read without the filter's lock; callers marshal
// it themselves, which lets the repair path serialize straight into a pooled
// wire buffer instead of paying a fresh frame allocation per retransmission.
func (f *SenderFilter) Lookup(seq uint64) *packet.Packet {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.ring[seq%uint64(len(f.ring))]
	if p == nil || p.Seq != seq {
		f.misses++
		return nil
	}
	f.served++
	return p
}

// HistoryLimit returns the ring depth.
func (f *SenderFilter) HistoryLimit() int { return len(f.ring) }

// Stats returns how many data packets were admitted to the history, how many
// retransmissions were served, and how many requests missed (already
// evicted or never sent).
func (f *SenderFilter) Stats() (tracked, served, misses uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tracked, f.served, f.misses
}

// jitterEntry is one held data frame with its sequence number and release
// deadline.
type jitterEntry struct {
	b   *packet.Buf
	seq uint64
	due time.Time
}

// jitterHeap orders held frames by sequence number, so releases are always
// in-order among buffered frames.
type jitterHeap []jitterEntry

func (h jitterHeap) Len() int            { return len(h) }
func (h jitterHeap) Less(i, j int) bool  { return h[i].seq < h[j].seq }
func (h jitterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *jitterHeap) Push(x interface{}) { *h = append(*h, x.(jitterEntry)) }
func (h *jitterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = jitterEntry{}
	*h = old[:n-1]
	return e
}

// JitterFilter is the compose-plane "jitter=<ms>" stage: a reorder/smoothing
// buffer that holds each data packet for a fixed delay and releases buffered
// packets in sequence order — the playout-buffer half of the reliability
// spectrum, which gives ARQ repairs a window to slot retransmissions back
// into sequence before delivery. Non-data frames (parity, control, feedback)
// pass straight through, and past filter.MaxHeld held frames new data is
// dropped and counted. The stage is timed: its chain's timer calls release.
type JitterFilter struct {
	*filter.Base
	delay time.Duration

	mu       sync.Mutex
	heap     jitterHeap
	buffered uint64 // total data packets held
	released uint64 // total data packets released
}

// NewJitterFilter returns a smoothing buffer holding data packets for delay
// before releasing them in sequence order (non-positive delays select 1ms).
func NewJitterFilter(name string, delay time.Duration) *JitterFilter {
	if name == "" {
		name = "jitter"
	}
	if delay <= 0 {
		delay = time.Millisecond
	}
	f := &JitterFilter{delay: delay}
	f.Base = filter.NewFrame(name, f.hold, f.flush).WithRelease(f.release, f.depth)
	return f
}

// depth returns how many data packets are held.
func (f *JitterFilter) depth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.heap)
}

// hold is the frame body: non-data frames pass straight through, data frames
// are held until their deadline.
func (f *JitterFilter) hold(b *packet.Buf, emit func(*packet.Buf)) error {
	if packet.FrameKind(b.B) != packet.KindData {
		emit(b)
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.heap) >= filter.MaxHeld {
		b.Release()
		f.CountDrop()
		return nil
	}
	heap.Push(&f.heap, jitterEntry{b: b, seq: packet.FrameSeq(b.B), due: f.Now().Add(f.delay)})
	f.buffered++
	return nil
}

// release emits the due frames in sequence order. It stops at the first
// not-yet-due frame, so a still-maturing low sequence number is never jumped,
// and reports how long until that frame is due (0: nothing held).
func (f *JitterFilter) release(emit func(*packet.Buf)) time.Duration {
	now := f.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.heap) > 0 && !f.heap[0].due.After(now) {
		emit(heap.Pop(&f.heap).(jitterEntry).b)
		f.released++
	}
	if len(f.heap) == 0 {
		return 0
	}
	return f.heap[0].due.Sub(now)
}

// flush emits every held frame in sequence order.
func (f *JitterFilter) flush(emit func(*packet.Buf)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.heap) > 0 {
		emit(heap.Pop(&f.heap).(jitterEntry).b)
		f.released++
	}
	return nil
}

// Delay returns the configured hold time.
func (f *JitterFilter) Delay() time.Duration { return f.delay }

// Stats returns how many data packets have been buffered and released; the
// difference is the current buffer depth.
func (f *JitterFilter) Stats() (buffered, released uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.buffered, f.released
}

var (
	_ filter.Filter = (*SenderFilter)(nil)
	_ filter.Filter = (*JitterFilter)(nil)
)
