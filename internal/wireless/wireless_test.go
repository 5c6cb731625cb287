package wireless

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestBernoulliLossRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Bernoulli{P: 0.1}
	lost := 0
	const trials = 100_000
	for i := 0; i < trials; i++ {
		if m.Lost(rng) {
			lost++
		}
	}
	got := float64(lost) / trials
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("observed loss %v, want ~0.1", got)
	}
	if m.MeanLossRate() != 0.1 {
		t.Fatalf("MeanLossRate = %v", m.MeanLossRate())
	}
	if m.String() == "" {
		t.Fatal("String empty")
	}
}

func TestBernoulliExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	never := Bernoulli{P: 0}
	always := Bernoulli{P: 1}
	for i := 0; i < 1000; i++ {
		if never.Lost(rng) {
			t.Fatal("P=0 model lost a packet")
		}
		if !always.Lost(rng) {
			t.Fatal("P=1 model delivered a packet")
		}
	}
}

func TestGilbertElliottStationaryLossRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGilbertElliott(0.01, 0.5, 0, 1)
	want := g.MeanLossRate() // 0.01/0.51 ≈ 0.0196
	lost := 0
	const trials = 200_000
	for i := 0; i < trials; i++ {
		if g.Lost(rng) {
			lost++
		}
	}
	got := float64(lost) / trials
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("observed loss %v, want ~%v", got, want)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// With a long bad state, losses should come in runs much more often than
	// under an independent model with the same mean rate.
	rng := rand.New(rand.NewSource(4))
	g := NewGilbertElliott(0.002, 0.2, 0, 1) // bursts of ~5
	var runs, runLen, totalRunLen int
	inRun := false
	for i := 0; i < 200_000; i++ {
		if g.Lost(rng) {
			if !inRun {
				inRun = true
				runs++
				runLen = 0
			}
			runLen++
		} else if inRun {
			inRun = false
			totalRunLen += runLen
		}
	}
	if runs == 0 {
		t.Fatal("no loss runs observed")
	}
	meanRun := float64(totalRunLen) / float64(runs)
	if meanRun < 2.5 {
		t.Fatalf("mean loss run length %v, want clearly bursty (>2.5)", meanRun)
	}
}

func TestGilbertElliottDegenerate(t *testing.T) {
	g := NewGilbertElliott(0, 0, 0.25, 1)
	if g.MeanLossRate() != 0.25 {
		t.Fatalf("MeanLossRate = %v, want LossGood when no transitions", g.MeanLossRate())
	}
	if g.String() == "" {
		t.Fatal("String empty")
	}
}

func TestLossAtDistanceCalibration(t *testing.T) {
	// The paper's operating point: ~1.5% raw loss at 25 m.
	at25 := LossAtDistance(25)
	if at25 < 0.005 || at25 > 0.03 {
		t.Fatalf("loss at 25m = %v, want within [0.5%%, 3%%]", at25)
	}
	// Loss must rise "dramatically over a distance of several meters".
	at35 := LossAtDistance(35)
	at45 := LossAtDistance(45)
	if at35 < 3*at25 {
		t.Fatalf("loss at 35m (%v) not dramatically higher than at 25m (%v)", at35, at25)
	}
	if at45 <= at35 {
		t.Fatal("loss must keep increasing with distance")
	}
	// Monotonic non-decreasing over the whole range, and sane at the ends.
	prev := 0.0
	for d := 0.0; d <= 80; d += 1 {
		p := LossAtDistance(d)
		if p < prev {
			t.Fatalf("loss decreased at %vm", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("loss out of range at %vm: %v", d, p)
		}
		prev = p
	}
	if LossAtDistance(-5) != LossAtDistance(0) {
		t.Fatal("negative distances should clamp to zero")
	}
}

func TestNewDistanceLossMatchesCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewDistanceLoss(25, 1.2)
	want := LossAtDistance(25)
	lost := 0
	const trials = 300_000
	for i := 0; i < trials; i++ {
		if m.Lost(rng) {
			lost++
		}
	}
	got := float64(lost) / trials
	if math.Abs(got-want) > want/2 {
		t.Fatalf("observed loss %v, want ~%v", got, want)
	}
	// meanBurst below 1 clamps.
	m2 := NewDistanceLoss(25, 0)
	if m2.PBadToGood != 1 {
		t.Fatalf("PBadToGood = %v, want 1 for clamped burst length", m2.PBadToGood)
	}
}

func TestSerializationDelay(t *testing.T) {
	cfg := WaveLAN2Mbps()
	// 250 bytes = 2000 bits at 2 Mbps = 1 ms.
	if got := cfg.SerializationDelay(250); got != time.Millisecond {
		t.Fatalf("SerializationDelay(250) = %v, want 1ms", got)
	}
	zero := LinkConfig{}
	if zero.SerializationDelay(1000) != 0 {
		t.Fatal("zero-bandwidth config should report zero delay")
	}
}

func TestChannelBroadcastIndependentLoss(t *testing.T) {
	cfg := WaveLAN2Mbps()
	ch := NewChannel(cfg)
	a, err := ch.Attach("laptop-a", Bernoulli{P: 0.5}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ch.Attach("laptop-b", Bernoulli{P: 0.5}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Attach("laptop-a", Bernoulli{}, rand.New(rand.NewSource(3))); !errors.Is(err, ErrReceiverExists) {
		t.Fatalf("duplicate attach err = %v", err)
	}

	const total, frameBytes = 2000, 31
	floor := cfg.SerializationDelay(frameBytes) + cfg.PropagationDelay
	differ := 0
	for i := 0; i < total; i++ {
		deliveries := ch.Broadcast(frameBytes)
		if len(deliveries) != 2 {
			t.Fatalf("got %d deliveries, want 2", len(deliveries))
		}
		for _, d := range deliveries {
			if d.Latency < floor || d.Latency >= floor+cfg.MaxJitter {
				t.Fatalf("latency %v outside [%v, %v)", d.Latency, floor, floor+cfg.MaxJitter)
			}
		}
		if deliveries[0].Lost != deliveries[1].Lost {
			differ++
		}
	}
	if ch.Sent() != total {
		t.Fatalf("Sent = %d, want %d", ch.Sent(), total)
	}
	if a.rx+a.dropped != total || b.rx+b.dropped != total {
		t.Fatalf("stats do not add up: a=%d+%d b=%d+%d", a.rx, a.dropped, b.rx, b.dropped)
	}
	if loss := float64(a.dropped) / float64(total); loss < 0.4 || loss > 0.6 {
		t.Fatalf("receiver a loss rate %v, want ~0.5", loss)
	}
	// With independent 50% loss the two receivers' outcomes must differ for a
	// substantial fraction of frames.
	if differ < total/4 {
		t.Fatalf("outcomes differ on %d of %d frames, want independent losses", differ, total)
	}
	if len(ch.receivers) != 2 {
		t.Fatalf("receivers = %d, want 2", len(ch.receivers))
	}
}

func TestReceiverNameAndInitialLossRate(t *testing.T) {
	ch := NewChannel(LinkConfig{})
	r, _ := ch.Attach("palmtop", Bernoulli{P: 0}, rand.New(rand.NewSource(1)))
	if r.name != "palmtop" {
		t.Fatalf("name = %q", r.name)
	}
	if r.rx != 0 || r.dropped != 0 {
		t.Fatalf("received %d, lost %d before any traffic", r.rx, r.dropped)
	}
}
