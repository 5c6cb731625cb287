package arq

import (
	"container/heap"
	"sync"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// SenderFilter is the engine's retained frame history, the one structure
// behind two compose-plane stages: "arq", whose history the engine answers
// KindNack feedback from — the retransmission path never re-enters the chain,
// so repairs reach only the receiver that asked (unicast), exactly as the
// paper's ARQ baseline does — and "replay=<n>", whose window primes a station
// joining a fan-out session mid-stream with recent history, the paper's
// collaborative-session catch-up. Either way it is a pass-through that copies
// each data frame it forwards into a slot keyed by sequence number, never
// holding on to the buffer the frame arrived in. Slot storage is reused, so
// the hot path is one mutex-guarded copy; eviction is the slot's overwrite.
// The slots are allocated with the first data frame: an idle session's
// history costs nothing.
type SenderFilter struct {
	*filter.Base
	depth int

	mu      sync.Mutex
	slots   [][]byte // slots[seq%depth] holds frame seq iff its header says so
	newest  uint64   // the sequence number of the last data frame admitted
	tracked uint64
	served  uint64
	misses  uint64
}

// NewSenderFilter returns a history stage keeping the last historyLimit data
// frames (<=0 selects DefaultHistory).
func NewSenderFilter(name string, historyLimit int) *SenderFilter {
	if name == "" {
		name = "arq"
	}
	if historyLimit <= 0 {
		historyLimit = DefaultHistory
	}
	f := &SenderFilter{depth: historyLimit}
	f.Base = filter.NewFrame(name, f.admit, nil)
	return f
}

// admit is the frame body: it forwards every frame and copies data frames
// into their slot.
func (f *SenderFilter) admit(b *packet.Buf, emit func(*packet.Buf)) error {
	if err := filter.CheckFrame(b); err != nil {
		return err
	}
	if packet.FrameKind(b.B) == packet.KindData {
		seq := packet.FrameSeq(b.B)
		f.mu.Lock()
		if f.slots == nil {
			f.slots = make([][]byte, f.depth)
		}
		sl := &f.slots[seq%uint64(f.depth)]
		*sl = append((*sl)[:0], b.B...)
		f.newest = seq
		f.tracked++
		f.mu.Unlock()
	}
	emit(b)
	return nil
}

// heldLocked returns the retained frame with sequence number seq, or nil.
// Caller holds f.mu.
func (f *SenderFilter) heldLocked(seq uint64) []byte {
	if f.slots == nil {
		return nil
	}
	if frame := f.slots[seq%uint64(f.depth)]; len(frame) > 0 && packet.FrameSeq(frame) == seq {
		return frame
	}
	return nil
}

// Lookup returns a copy of the data frame with sequence number seq in a
// pooled frame buffer (packet.GetFrameBuf, so the engine can prepend its
// session ID in place) that the caller owns, or nil when the history no
// longer (or never) held it.
func (f *SenderFilter) Lookup(seq uint64) *packet.Buf {
	f.mu.Lock()
	defer f.mu.Unlock()
	frame := f.heldLocked(seq)
	if frame == nil {
		f.misses++
		return nil
	}
	f.served++
	b := packet.GetFrameBuf(len(frame))
	copy(b.B, frame)
	return b
}

// Visit calls visit with each frame of the retained window, oldest first: the
// frames held for the HistoryLimit sequence numbers up to the newest one
// admitted. It runs under the history's lock, so visit sees the frames in
// place and must neither keep nor modify them past the call (copy them into
// pooled storage instead), nor call back into the filter.
func (f *SenderFilter) Visit(visit func(frame []byte)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tracked == 0 {
		return
	}
	seq := uint64(0)
	if depth := uint64(f.depth); f.newest >= depth {
		seq = f.newest - depth + 1
	}
	for ; ; seq++ {
		if frame := f.heldLocked(seq); frame != nil {
			visit(frame)
		}
		if seq == f.newest {
			return
		}
	}
}

// HistoryLimit returns how many sequence numbers the history spans.
func (f *SenderFilter) HistoryLimit() int { return f.depth }

// Stats returns how many data frames were admitted to the history, how many
// lookups were served, and how many missed (already evicted or never sent).
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
	if err := filter.CheckFrame(b); err != nil {
		return err
	}
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

var (
	_ filter.Filter = (*SenderFilter)(nil)
	_ filter.Filter = (*JitterFilter)(nil)
)
