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
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Jitter() != 0 {
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
	if got := h.Jitter(); got != time.Millisecond {
		t.Fatalf("jitter = %v, want 1ms", got)
	}
	if h.String() == "" {
		t.Fatal("String empty")
	}
}

func TestPacketOutcomeString(t *testing.T) {
	if OutcomeLost.String() != "lost" || OutcomeReceived.String() != "received" ||
		OutcomeReconstructed.String() != "reconstructed" {
		t.Fatal("outcome names wrong")
	}
	if PacketOutcome(9).String() == "" {
		t.Fatal("unknown outcome should still format")
	}
}

func TestTraceRecorderRates(t *testing.T) {
	tr := NewTraceRecorder()
	rx, rc := tr.Rates()
	if rx != 1 || rc != 1 {
		t.Fatalf("empty rates = %v, %v", rx, rc)
	}
	// 100 packets: 90 received, 8 reconstructed, 2 lost.
	for i := 0; i < 100; i++ {
		tr.MarkSent(uint64(i))
	}
	for i := 0; i < 90; i++ {
		tr.Record(uint64(i), OutcomeReceived)
	}
	for i := 90; i < 98; i++ {
		tr.Record(uint64(i), OutcomeReconstructed)
	}
	rx, rc = tr.Rates()
	if rx != 0.90 {
		t.Fatalf("received rate = %v, want 0.90", rx)
	}
	if rc != 0.98 {
		t.Fatalf("reconstructed rate = %v, want 0.98", rc)
	}
	if tr.Total() != 100 {
		t.Fatalf("Total = %d", tr.Total())
	}
}

func TestTraceRecorderNeverDowngrades(t *testing.T) {
	tr := NewTraceRecorder()
	tr.Record(5, OutcomeReceived)
	tr.Record(5, OutcomeReconstructed) // worse; must not downgrade
	tr.MarkSent(5)                     // must not downgrade either
	rx, _ := tr.Rates()
	if rx != 1 {
		t.Fatalf("received rate = %v, want 1", rx)
	}
}

func TestTraceRecorderSeries(t *testing.T) {
	tr := NewTraceRecorder()
	// Two windows of 10: first all received, second half lost.
	for i := 0; i < 10; i++ {
		tr.Record(uint64(i), OutcomeReceived)
	}
	for i := 10; i < 20; i++ {
		if i%2 == 0 {
			tr.Record(uint64(i), OutcomeReceived)
		} else {
			tr.MarkSent(uint64(i))
		}
	}
	series := tr.Series(10)
	if len(series) != 2 {
		t.Fatalf("len(series) = %d, want 2", len(series))
	}
	if series[0].ReceivedRate != 1 || series[0].ReconstructedRate != 1 {
		t.Fatalf("window 0 = %+v", series[0])
	}
	if series[1].ReceivedRate != 0.5 {
		t.Fatalf("window 1 received = %v, want 0.5", series[1].ReceivedRate)
	}
	if series[1].Seq != 19 {
		t.Fatalf("window 1 seq = %d, want 19", series[1].Seq)
	}
	if tr.Series(0) == nil {
		t.Fatal("windowSize 0 should clamp, not return nil")
	}
	if NewTraceRecorder().Series(5) != nil {
		t.Fatal("empty recorder should return nil series")
	}
}

func TestTraceRecorderFormatSeries(t *testing.T) {
	tr := NewTraceRecorder()
	for i := 0; i < 5; i++ {
		tr.Record(uint64(i), OutcomeReceived)
	}
	out := tr.FormatSeries(5)
	if out == "" || len(out) < 20 {
		t.Fatalf("FormatSeries output too short: %q", out)
	}
}
