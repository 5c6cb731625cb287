package arq

import "sync/atomic"

// Every requester of retransmissions may be re-sent at most one byte in
// RetransmitShare of the bytes relayed to it, retransmissions included, and
// RetransmitBurst at once. The share scales with each requester's own stream,
// so a high-rate receiver gets its repairs while a NACK flood buys at most a
// fixed fraction over what the receiver already gets. The adaptation plane
// selects ARQ only up to adapt.ARQLossCeiling (5% loss) and a receiver NACKs
// a gap at most three times (NewReceiver's default), so a legitimate receiver
// asks for at most about 15% of its stream; one byte in four of everything
// relayed — a third of the stream itself — holds that with room. The burst
// re-sends a one-second fade of a 2 Mbit/s stream (the paper's WaveLAN) before
// the stream has earned it. No benchmark workload sends NACKs, so neither
// value has been measured against a running receiver's demand.
const (
	RetransmitShare = 4
	RetransmitBurst = 256 << 10
)

// Budget is one requester's retransmission budget: a token bucket of bytes
// whose clock is the requester's relayed bytes over RetransmitShare, kept as
// one clock reading (the generic cell rate algorithm) at which what it drew
// will have been earned back. The zero value is full. It is safe for
// concurrent use.
type Budget struct{ drained atomic.Int64 }

// Take charges n bytes to a requester that has been relayed sent bytes so
// far, a count that only grows, and reports whether the budget held them; a
// refused charge costs nothing.
func (b *Budget) Take(n int, sent uint64) bool {
	now := int64(sent / RetransmitShare)
	for {
		d := b.drained.Load()
		next := max(d, now) + int64(n)
		if next-now > RetransmitBurst {
			return false
		}
		if b.drained.CompareAndSwap(d, next) {
			return true
		}
	}
}
