// Package metrics provides the measurement primitives used across the
// RAPIDware reproduction: sliding-window rates, latency histograms, and the
// packet trace recorder that regenerates the paper's Figure 7 series
// (percentage of packets received vs. reconstructed by sequence number).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// SlidingRate tracks the fraction of successful outcomes over the most recent
// window observations. It is the primitive the loss-rate observer raplet uses
// to decide when to insert an FEC filter.
type SlidingRate struct {
	mu      sync.Mutex
	window  []bool
	size    int
	next    int
	filled  int
	success int
}

// NewSlidingRate returns a tracker over the last size observations. size must
// be positive.
func NewSlidingRate(size int) *SlidingRate {
	if size <= 0 {
		panic("metrics: sliding window size must be positive")
	}
	return &SlidingRate{window: make([]bool, size), size: size}
}

// Observe records one outcome.
func (s *SlidingRate) Observe(ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.filled == s.size {
		// Evict the observation being overwritten.
		if s.window[s.next] {
			s.success--
		}
	} else {
		s.filled++
	}
	s.window[s.next] = ok
	if ok {
		s.success++
	}
	s.next = (s.next + 1) % s.size
}

// Rate returns the success fraction over the window; 1 when empty.
func (s *SlidingRate) Rate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.filled == 0 {
		return 1
	}
	return float64(s.success) / float64(s.filled)
}

// Observations returns how many samples are currently in the window.
func (s *SlidingRate) Observations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.filled
}

// Histogram collects duration samples and reports order statistics; it is
// used for jitter and filter-insertion latency measurements.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.mu.Unlock()
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the recorded samples, or 0
// when no samples exist.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), h.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Mean returns the arithmetic mean of the samples, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Jitter returns the mean absolute difference between consecutive samples,
// the metric the paper's small FEC group sizes are chosen to minimize.
func (h *Histogram) Jitter() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) < 2 {
		return 0
	}
	var sum time.Duration
	for i := 1; i < len(h.samples); i++ {
		d := h.samples[i] - h.samples[i-1]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / time.Duration(len(h.samples)-1)
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p99=%s", h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
}
