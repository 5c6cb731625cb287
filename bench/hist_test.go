package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistBucketsTileTheRange(t *testing.T) {
	prevHi := int64(0)
	for idx := 0; idx < histBuckets; idx++ {
		lo, hi := bucketBounds(idx)
		if lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d = [%d,%d), previous ended at %d", idx, lo, hi, prevHi)
		}
		if bucketOf(lo) != idx || bucketOf(hi-1) != idx {
			t.Fatalf("bucket %d = [%d,%d) but bucketOf gives %d and %d", idx, lo, hi, bucketOf(lo), bucketOf(hi-1))
		}
		if lo >= histSub && float64(hi-lo)/float64(lo) > 1.0/histSub {
			t.Fatalf("bucket %d is wider than 1/%d of its value", idx, histSub)
		}
		prevHi = hi
	}
	if bucketOf(-5) != 0 || bucketOf(math.MaxInt64) != histBuckets-1 {
		t.Fatal("out-of-range values must clamp to the end buckets")
	}
}

func TestHistQuantilesTrackTheSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var vals []float64
	for i := 0; i < 50_000; i++ {
		v := int64(math.Exp(rng.NormFloat64()*0.7 + 12)) // log-normal around 160 us
		h.add(v)
		vals = append(vals, float64(v))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, _ := h.quantile(q)
		want := vals[int(q*float64(len(vals)))-1]
		if math.Abs(got-want)/want > 2.0/histSub {
			t.Errorf("q%.2f = %.0f, exact %.0f: off by more than a bucket", q, got, want)
		}
	}
	var a, b hist
	for i, v := range vals {
		if i%2 == 0 {
			a.add(int64(v))
		} else {
			b.add(int64(v))
		}
	}
	a.merge(&b)
	if a != h {
		t.Error("merging two halves does not rebuild the whole")
	}
}

func TestP99NeedsTenSamplesBeyondIt(t *testing.T) {
	var h hist
	if v, beyond := h.quantile(0.99); v != 0 || beyond != 0 {
		t.Fatal("an empty histogram must report zero")
	}
	for i := 1; i <= 999; i++ {
		h.add(int64(i) * 1000)
	}
	if _, ok := h.p99(); ok {
		t.Fatal("999 samples leave 9 beyond p99: not a percentile yet")
	}
	h.add(1_000_000)
	v, ok := h.p99()
	if !ok {
		t.Fatal("1000 samples leave 10 beyond p99: reportable")
	}
	if v < 985_000 || v > 995_000 {
		t.Fatalf("p99 of 1..1000 ms-steps = %.0f", v)
	}
	if _, beyond := h.quantile(0.5); beyond != 500 {
		t.Fatalf("%d samples beyond the median of 1000", beyond)
	}
}
