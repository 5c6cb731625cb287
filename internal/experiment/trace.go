package experiment

import (
	"fmt"
	"strings"
)

// Outcome records what happened to one data packet at a receiver.
type Outcome int

// Outcomes, from worst to best.
const (
	// OutcomeLost means the packet never arrived and was not reconstructed.
	OutcomeLost Outcome = iota
	// OutcomeReconstructed means the packet was repaired by the FEC decoder.
	OutcomeReconstructed
	// OutcomeReceived means the packet arrived directly off the network.
	OutcomeReceived
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeLost:
		return "lost"
	case OutcomeReconstructed:
		return "reconstructed"
	case OutcomeReceived:
		return "received"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// TracePoint is one bucket of the Figure 7 series: for the window of packets
// ending at Seq, the fraction received raw and the fraction usable after
// reconstruction.
type TracePoint struct {
	Seq               uint64  // last sequence number in the window
	ReceivedRate      float64 // fraction received directly
	ReconstructedRate float64 // fraction received or reconstructed
}

// Trace is one receiver's outcome for every data packet sent, indexed by the
// packet's ordinal in the stream: the series the paper's Figure 7 plots. A
// packet starts out lost.
type Trace []Outcome

// record notes the outcome for data packet seq. Outcomes never downgrade: a
// packet reconstructed and later received directly stays "received", and
// one received stays so. A seq outside the trace is ignored.
func (t Trace) record(seq uint64, outcome Outcome) {
	if seq < uint64(len(t)) && outcome > t[seq] {
		t[seq] = outcome
	}
}

// rates returns the fractions of outcomes received and usable (received or
// reconstructed); an empty set reads 1, 1.
func rates(outcomes []Outcome) (received, reconstructed float64) {
	if len(outcomes) == 0 {
		return 1, 1
	}
	var rx, usable int
	for _, o := range outcomes {
		if o == OutcomeReceived {
			rx++
		}
		if o >= OutcomeReconstructed {
			usable++
		}
	}
	n := float64(len(outcomes))
	return float64(rx) / n, float64(usable) / n
}

// Rates returns the overall received and reconstructed fractions, the two
// headline numbers of Figure 7 (the paper reports 98.54% and 99.98%).
func (t Trace) Rates() (received, reconstructed float64) { return rates(t) }

// Series produces the windowed trace: one TracePoint per window of windowSize
// consecutive packets, covering the whole trace.
func (t Trace) Series(windowSize int) []TracePoint {
	windowSize = max(windowSize, 1)
	var points []TracePoint
	for start := 0; start < len(t); start += windowSize {
		end := min(start+windowSize, len(t))
		rx, usable := rates(t[start:end])
		points = append(points, TracePoint{Seq: uint64(end - 1), ReceivedRate: rx, ReconstructedRate: usable})
	}
	return points
}

// FormatSeries renders the series as the two-column table the paper plots:
// sequence number, % received, % reconstructed.
func (t Trace) FormatSeries(windowSize int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %-15s\n", "seq", "%received", "%reconstructed")
	for _, p := range t.Series(windowSize) {
		fmt.Fprintf(&b, "%-10d %-12.2f %-15.2f\n", p.Seq, p.ReceivedRate*100, p.ReconstructedRate*100)
	}
	rx, rc := t.Rates()
	fmt.Fprintf(&b, "overall    %-12.2f %-15.2f\n", rx*100, rc*100)
	return b.String()
}
