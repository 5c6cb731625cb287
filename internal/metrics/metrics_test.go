package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSlidingRateWindowEviction(t *testing.T) {
	s := NewSlidingRate(4)
	if s.Rate() != 1 {
		t.Fatalf("empty rate = %v, want 1", s.Rate())
	}
	// Fill with failures, then successes push them out.
	for i := 0; i < 4; i++ {
		s.Observe(false)
	}
	if s.Rate() != 0 {
		t.Fatalf("all-false rate = %v, want 0", s.Rate())
	}
	for i := 0; i < 2; i++ {
		s.Observe(true)
	}
	if s.Rate() != 0.5 {
		t.Fatalf("rate = %v, want 0.5", s.Rate())
	}
	for i := 0; i < 2; i++ {
		s.Observe(true)
	}
	if s.Rate() != 1 {
		t.Fatalf("rate = %v, want 1 after full eviction", s.Rate())
	}
	if s.Observations() != 4 {
		t.Fatalf("Observations = %d, want 4", s.Observations())
	}
}

func TestSlidingRatePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive size")
		}
	}()
	NewSlidingRate(0)
}

func TestSlidingRateMatchesNaiveProperty(t *testing.T) {
	f := func(obs []bool) bool {
		const window = 8
		s := NewSlidingRate(window)
		for _, o := range obs {
			s.Observe(o)
		}
		// Naive recomputation over the last `window` observations.
		start := 0
		if len(obs) > window {
			start = len(obs) - window
		}
		tail := obs[start:]
		if len(tail) == 0 {
			return s.Rate() == 1
		}
		succ := 0
		for _, o := range tail {
			if o {
				succ++
			}
		}
		want := float64(succ) / float64(len(tail))
		return s.Rate() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := h.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", got)
	}
	if got := h.Quantile(0); got != time.Millisecond {
		t.Fatalf("min = %v, want 1ms", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", got)
	}
	if h.String() == "" {
		t.Fatal("String empty")
	}
}
