package main

import (
	"math"
	"math/bits"
)

// hist is a fixed log-bucket histogram of non-negative int64 samples (ns):
// histSub linear sub-buckets per power of two, so a bucket is at most 1/64 of
// its value wide. Recording is an index computation and an increment — no
// allocation, no sorting — and histograms add, so each goroutine and each
// one-second slice keeps its own and the reporter merges them.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// Values up to 2^40 ns (18 minutes) get their own bucket; larger ones
	// share the last.
	histBuckets = (40 - histSubBits + 1) * histSub
)

// bucketOf maps a value to its bucket: values below histSub map to
// themselves, larger ones to (exponent, top histSubBits mantissa bits).
func bucketOf(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	exp := bits.Len64(uint64(v)) - 1 - histSubBits // >= 0
	idx := (exp+1)*histSub + int(uint64(v)>>uint(exp))&(histSub-1)
	return min(idx, histBuckets-1)
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < histSub {
		return int64(idx), int64(idx) + 1
	}
	exp := idx/histSub - 1
	lo = int64(histSub+idx%histSub) << uint(exp)
	return lo, lo + int64(1)<<uint(exp)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated inside its bucket, and how
// many samples rank beyond it. Zero samples give 0, 0.
func (h *hist) quantile(q float64) (v float64, beyond uint64) {
	if h.n == 0 {
		return 0, 0
	}
	rank := q * float64(h.n) // samples at or below the answer
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+uint64(c)) >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - float64(seen)) / float64(c)
			return float64(lo) + frac*float64(hi-lo), h.n - uint64(math.Ceil(rank-1e-9))
		}
		seen += uint64(c)
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return float64(lo), 0
}

// tailMin is how many samples must lie beyond a percentile for it to be
// reported: fewer and the figure is one or two outliers, not a percentile.
const tailMin = 10

// p99 returns the 99th percentile, or ok=false when fewer than tailMin
// samples lie beyond it.
func (h *hist) p99() (v float64, ok bool) {
	v, beyond := h.quantile(0.99)
	return v, beyond >= tailMin
}
