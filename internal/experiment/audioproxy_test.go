package experiment

import (
	"math/rand"
	"runtime"
	"testing"

	"rapidware/internal/fec"
	"rapidware/internal/wireless"
)

func TestRunAudioProxyDefaults(t *testing.T) {
	pcm := make([]byte, 16000*2) // 2 seconds of paper-format audio
	for i := range pcm {
		pcm[i] = byte(i)
	}
	res, err := RunAudioProxy(AudioProxyConfig{Seed: 1}, pcm)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent != 100 { // 2s / 20ms
		t.Fatalf("DataSent = %d, want 100", res.DataSent)
	}
	if res.Overhead < 1.4 || res.Overhead > 1.6 {
		t.Fatalf("Overhead = %v, want ~1.5 for (6,4)", res.Overhead)
	}
	if len(res.Receivers) != 1 {
		t.Fatalf("receivers = %d", len(res.Receivers))
	}
	r := res.Receivers[0]
	if r.Sent != 100 {
		t.Fatalf("receiver Sent = %d", r.Sent)
	}
	if r.ReconstructedRate() < r.ReceivedRate() {
		t.Fatal("reconstruction made things worse")
	}
	if r.Audio.Completeness() != r.ReconstructedRate() {
		t.Logf("note: audio completeness %v vs reconstructed rate %v", r.Audio.Completeness(), r.ReconstructedRate())
	}
}

func TestRunAudioProxyNoFECBaseline(t *testing.T) {
	pcm := make([]byte, 16000)
	cfg := AudioProxyConfig{
		FEC:  fec.Params{K: 1, N: 1},
		Seed: 2,
		Receivers: []ReceiverConfig{
			{Name: "lossy", Model: wireless.Bernoulli{P: 0.2}},
		},
	}
	res, err := RunAudioProxy(cfg, pcm)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Receivers[0]
	if r.Reconstructed != 0 {
		t.Fatalf("baseline run reconstructed %d packets, want 0", r.Reconstructed)
	}
	if r.ReceivedRate() > 0.95 {
		t.Fatalf("received rate %v, want visible loss at P=0.2", r.ReceivedRate())
	}
	if res.Overhead != 1 {
		t.Fatalf("Overhead = %v, want 1 without FEC", res.Overhead)
	}
}

func TestRunAudioProxyFECBeatsBaseline(t *testing.T) {
	pcm := make([]byte, 16000*4)
	loss := 0.05
	base := AudioProxyConfig{
		FEC:       fec.Params{K: 1, N: 1},
		Seed:      3,
		Receivers: []ReceiverConfig{{Name: "rx", Model: wireless.Bernoulli{P: loss}}},
	}
	withFEC := AudioProxyConfig{
		FEC:       fec.Params{K: 4, N: 6},
		Seed:      3,
		Receivers: []ReceiverConfig{{Name: "rx", Model: wireless.Bernoulli{P: loss}}},
	}
	baseRes, err := RunAudioProxy(base, pcm)
	if err != nil {
		t.Fatal(err)
	}
	fecRes, err := RunAudioProxy(withFEC, pcm)
	if err != nil {
		t.Fatal(err)
	}
	baseRate := baseRes.Receivers[0].ReconstructedRate()
	fecRate := fecRes.Receivers[0].ReconstructedRate()
	if fecRate <= baseRate {
		t.Fatalf("FEC did not improve delivery: %v vs baseline %v", fecRate, baseRate)
	}
	if fecRate < 0.99 {
		t.Fatalf("FEC(6,4) at 5%% loss should deliver >99%%, got %v", fecRate)
	}
}

func TestRunAudioProxyMultipleReceiversIndependent(t *testing.T) {
	pcm := make([]byte, 16000*2)
	cfg := AudioProxyConfig{
		Seed: 4,
		Receivers: []ReceiverConfig{
			{Name: "near", DistanceMetres: 10, MeanBurst: 1},
			{Name: "paper", DistanceMetres: 25, MeanBurst: 1.2},
			{Name: "far", DistanceMetres: 42, MeanBurst: 2},
		},
	}
	res, err := RunAudioProxy(cfg, pcm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Receivers) != 3 {
		t.Fatalf("receivers = %d", len(res.Receivers))
	}
	byName := map[string]ReceiverResult{}
	for _, r := range res.Receivers {
		byName[r.Name] = r
	}
	if byName["far"].ReceivedRate() >= byName["near"].ReceivedRate() {
		t.Fatalf("far receiver (%v) should see more loss than near (%v)",
			byName["far"].ReceivedRate(), byName["near"].ReceivedRate())
	}
}

func TestRunAudioProxyEmptyAudio(t *testing.T) {
	if _, err := RunAudioProxy(AudioProxyConfig{}, nil); err == nil {
		t.Fatal("expected error for empty audio")
	}
}

func TestReceiverResultRatesEmpty(t *testing.T) {
	var r ReceiverResult
	if r.ReceivedRate() != 1 || r.ReconstructedRate() != 1 {
		t.Fatal("empty result should report rate 1")
	}
}

// goroutineProbe is a lossless model that records the most goroutines alive
// at any of its draws.
type goroutineProbe struct{ max int }

func (g *goroutineProbe) Lost(*rand.Rand) bool {
	g.max = max(g.max, runtime.NumGoroutine())
	return false
}
func (g *goroutineProbe) MeanLossRate() float64 { return 0 }
func (g *goroutineProbe) String() string        { return "goroutine-probe" }

// TestRunAudioProxyRunsOnCallerGoroutine checks that the pipeline runs to
// completion on the caller's goroutine: while frames cross the channel, no
// pump or stage goroutine exists beside the test's own.
func TestRunAudioProxyRunsOnCallerGoroutine(t *testing.T) {
	probe := &goroutineProbe{}
	before := runtime.NumGoroutine()
	res, err := RunAudioProxy(AudioProxyConfig{
		Seed:      5,
		Receivers: []ReceiverConfig{{Name: "a", Model: probe}, {Name: "b", Model: probe}},
	}, make([]byte, 16000))
	if err != nil {
		t.Fatal(err)
	}
	if probe.max > before {
		t.Fatalf("%d goroutines alive during the run, %d before it", probe.max, before)
	}
	for _, rx := range res.Receivers {
		if rx.Received != res.DataSent {
			t.Fatalf("receiver %q got %d of %d packets over a lossless channel", rx.Name, rx.Received, res.DataSent)
		}
	}
}
