package experiment

import "testing"

func TestOutcomeString(t *testing.T) {
	if OutcomeLost.String() != "lost" || OutcomeReceived.String() != "received" ||
		OutcomeReconstructed.String() != "reconstructed" {
		t.Fatal("outcome names wrong")
	}
	if Outcome(9).String() == "" {
		t.Fatal("unknown outcome should still format")
	}
}

func TestTraceRates(t *testing.T) {
	rx, rc := Trace(nil).Rates()
	if rx != 1 || rc != 1 {
		t.Fatalf("empty rates = %v, %v", rx, rc)
	}
	// 100 packets: 90 received, 8 reconstructed, 2 lost.
	tr := make(Trace, 100)
	for i := 0; i < 90; i++ {
		tr.record(uint64(i), OutcomeReceived)
	}
	for i := 90; i < 98; i++ {
		tr.record(uint64(i), OutcomeReconstructed)
	}
	rx, rc = tr.Rates()
	if rx != 0.90 {
		t.Fatalf("received rate = %v, want 0.90", rx)
	}
	if rc != 0.98 {
		t.Fatalf("reconstructed rate = %v, want 0.98", rc)
	}
}

func TestTraceNeverDowngrades(t *testing.T) {
	tr := make(Trace, 6)
	tr.record(5, OutcomeReceived)
	tr.record(5, OutcomeReconstructed) // worse; must not downgrade
	tr.record(5, OutcomeLost)          // must not downgrade either
	tr.record(6, OutcomeReceived)      // past the end: ignored
	if tr[5] != OutcomeReceived || len(tr) != 6 {
		t.Fatalf("trace = %v, want packet 5 received and 6 packets", tr)
	}
}

func TestTraceSeries(t *testing.T) {
	tr := make(Trace, 20)
	// Two windows of 10: first all received, second half lost.
	for i := 0; i < 10; i++ {
		tr.record(uint64(i), OutcomeReceived)
	}
	for i := 10; i < 20; i += 2 {
		tr.record(uint64(i), OutcomeReceived)
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
	if Trace(nil).Series(5) != nil {
		t.Fatal("empty trace should return nil series")
	}
}

func TestTraceFormatSeries(t *testing.T) {
	tr := make(Trace, 5)
	for i := range tr {
		tr.record(uint64(i), OutcomeReceived)
	}
	out := tr.FormatSeries(5)
	if out == "" || len(out) < 20 {
		t.Fatalf("FormatSeries output too short: %q", out)
	}
}
