// Package arq implements a NACK-based retransmission (ARQ) repair scheme for
// wireless multicast. It is the natural baseline the paper's FEC approach is
// an alternative to: instead of sending proactive parity, receivers detect
// gaps in the sequence space and ask the sender to retransmit. ARQ pays less
// bandwidth when loss is rare but adds at least a round trip of delay to
// every repaired packet and scales poorly as independent losses at different
// receivers each trigger their own retransmissions — exactly the argument the
// paper makes for parity-based repair of multicast.
//
// There is one sender-side history: SenderFilter, a pass-through stage
// keeping a bounded frame history. It is the "arq" stage the engine answers
// KindNack requests from, the "replay=<n>" stage it primes late joiners
// from, and the sender of the ARQ arm of the repair comparison
// (experiment.RunRepairComparison), which runs it in a filter.FrameChain and
// retransmits from its Lookup. Receiver is the gap-tracking half that names
// what to NACK. JitterFilter is the "jitter=<ms>" stage, a reorder/smoothing
// buffer that re-sequences data packets within a bounded delay.
package arq

import "sync"

// DefaultHistory is the depth of a SenderFilter's frame history when a caller
// does not specify one.
const DefaultHistory = 1024

// DefaultReceiverWindow is the receiver's sliding-window span in sequence
// numbers: gaps older than this are permanently given up. It comfortably
// covers the experiment harness's multi-thousand-packet runs while bounding
// state to a few kilobytes.
const DefaultReceiverWindow = 4096

// cell is the per-sequence state inside the receiver's sliding window.
type cell struct {
	attempts uint16
	received bool
}

// Receiver tracks which sequence numbers have arrived over a sliding window,
// exposes the current gaps (the NACK list), and records how many repair
// rounds each recovered packet needed. State is a fixed ring of cells over
// the last window sequence numbers — Missing scans only the window, never
// the full history, and memory is bounded regardless of stream length. A gap
// that slides out of the window, or exhausts its NACK budget, is permanently
// given up and counted as lost. It is safe for concurrent use.
type Receiver struct {
	mu       sync.Mutex
	cells    []cell
	lo       uint64 // lowest sequence number still tracked
	hi       uint64 // one past the highest sequence number observed or expected
	maxNACKs int

	delivered       uint64 // unique packets received (including slid-out ones)
	inWindow        int    // received cells currently inside [lo, hi)
	finalLost       uint64 // unreceived cells that slid out of the window
	recovered       uint64 // packets that arrived on a repair round
	recoveredRounds uint64 // sum of repair-round numbers over recovered
}

// NewReceiver returns a receiver with the default window that gives up on a
// packet after maxNACKs unanswered repair requests (<=0 selects 3, a typical
// bound for isochronous traffic where late packets are useless).
func NewReceiver(maxNACKs int) *Receiver {
	return NewReceiverWindow(maxNACKs, DefaultReceiverWindow)
}

// NewReceiverWindow returns a receiver tracking gaps over the last window
// sequence numbers (<=0 selects DefaultReceiverWindow).
func NewReceiverWindow(maxNACKs, window int) *Receiver {
	if maxNACKs <= 0 {
		maxNACKs = 3
	}
	if window <= 0 {
		window = DefaultReceiverWindow
	}
	return &Receiver{
		cells:    make([]cell, window),
		maxNACKs: maxNACKs,
	}
}

// cellAt returns the window cell for seq; caller holds r.mu and guarantees
// lo <= seq < hi.
func (r *Receiver) cellAt(seq uint64) *cell {
	return &r.cells[seq%uint64(len(r.cells))]
}

// advanceLocked extends the expected range to [lo, newHi), sliding the window
// forward and finalizing cells that fall out of it; caller holds r.mu.
func (r *Receiver) advanceLocked(newHi uint64) {
	window := uint64(len(r.cells))
	for s := r.hi; s < newHi; s++ {
		if s-r.lo >= window {
			r.slideLocked()
		}
		*r.cellAt(s) = cell{}
	}
	if newHi > r.hi {
		r.hi = newHi
	}
}

// slideLocked finalizes the cell at lo and advances it; caller holds r.mu.
func (r *Receiver) slideLocked() {
	c := r.cellAt(r.lo)
	if c.received {
		r.inWindow--
	} else {
		r.finalLost++
	}
	r.lo++
}

// Deliver records the arrival of the packet with sequence number seq. round
// is 0 for original transmissions and the repair round number for
// retransmissions. It reports whether the packet was new; arrivals below the
// window (already given up) are not accepted.
func (r *Receiver) Deliver(seq uint64, round int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq < r.lo {
		return false
	}
	r.advanceLocked(seq + 1)
	c := r.cellAt(seq)
	if c.received {
		return false
	}
	c.received = true
	r.delivered++
	r.inWindow++
	if round > 0 {
		r.recovered++
		r.recoveredRounds += uint64(round)
	}
	return true
}

// ExpectUpTo tells the receiver that sequence numbers [0, n) were sent, so
// trailing losses are counted even if nothing after them arrives.
func (r *Receiver) ExpectUpTo(n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceLocked(n)
}

// Missing returns the in-window sequence numbers that have not arrived and
// have not yet exhausted their NACK budget, incrementing each one's attempt
// counter. It is the NACK list for the next repair round; a gap whose budget
// ran dry is no longer listed.
func (r *Receiver) Missing() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []uint64
	for seq := r.lo; seq < r.hi; seq++ {
		c := r.cellAt(seq)
		if c.received {
			continue
		}
		if int(c.attempts) >= r.maxNACKs {
			continue
		}
		c.attempts++
		out = append(out, seq)
	}
	return out
}

// Stats summarizes the receiver's state: packets delivered, packets recovered
// by retransmission (a subset of delivered), packets permanently lost, and
// the mean number of repair rounds a recovered packet waited.
func (r *Receiver) Stats() (delivered, recovered, lost int, meanRepairRounds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delivered = int(r.delivered)
	recovered = int(r.recovered)
	lost = int(r.finalLost) + int(r.hi-r.lo) - r.inWindow
	if r.recovered > 0 {
		meanRepairRounds = float64(r.recoveredRounds) / float64(r.recovered)
	}
	return delivered, recovered, lost, meanRepairRounds
}

// DeliveredRate returns the fraction of expected packets that arrived. The
// snapshot is taken under one lock acquisition, so delivered and expected are
// always consistent with each other.
func (r *Receiver) DeliveredRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hi == 0 {
		return 1
	}
	return float64(r.delivered) / float64(r.hi)
}
