// Package wireless simulates the wireless LAN substrate of the paper's
// testbed: a 2 Mbps WaveLAN-class medium with distance-dependent, bursty
// packet loss, serialization delay and jitter.
//
// The paper's experiments ran on real hardware (laptops 25 m from an access
// point). This package substitutes a channel simulator that reproduces the
// loss *process* the receivers observed — ≈1.5 % mostly-isolated losses at
// 25 m, rising sharply with distance — so the FEC filters and adaptive
// raplets exercise the same code paths against the same packet-level
// behaviour.
package wireless

import (
	"fmt"
	"math"
	"math/rand"
)

// LossModel decides, packet by packet, whether a transmission is lost.
// Implementations are not safe for concurrent use; give each receiver its own
// model instance (losses at different receivers are independent, which is the
// property block erasure codes exploit for multicast).
type LossModel interface {
	// Lost returns true when the next packet should be dropped.
	Lost(rng *rand.Rand) bool
	// MeanLossRate returns the model's long-run loss probability.
	MeanLossRate() float64
	// String describes the model for experiment logs.
	String() string
}

// Bernoulli drops each packet independently with probability P.
type Bernoulli struct {
	P float64
}

// Lost implements LossModel.
func (b Bernoulli) Lost(rng *rand.Rand) bool { return rng.Float64() < b.P }

// MeanLossRate implements LossModel.
func (b Bernoulli) MeanLossRate() float64 { return b.P }

// String implements LossModel.
func (b Bernoulli) String() string { return fmt.Sprintf("bernoulli(p=%.4f)", b.P) }

// GilbertElliott is the classic two-state bursty loss model: the channel
// alternates between a Good state (loss probability LossGood, usually ~0) and
// a Bad state (LossBad, usually ~1). Transition probabilities PGoodToBad and
// PBadToGood control how often bursts start and how long they last.
type GilbertElliott struct {
	PGoodToBad float64
	PBadToGood float64
	LossGood   float64
	LossBad    float64

	bad bool // current state
}

// NewGilbertElliott returns a model with the given transition and per-state
// loss probabilities, starting in the Good state.
func NewGilbertElliott(pGoodToBad, pBadToGood, lossGood, lossBad float64) *GilbertElliott {
	return &GilbertElliott{
		PGoodToBad: pGoodToBad,
		PBadToGood: pBadToGood,
		LossGood:   lossGood,
		LossBad:    lossBad,
	}
}

// Lost implements LossModel.
func (g *GilbertElliott) Lost(rng *rand.Rand) bool {
	// Advance the state machine first, then sample loss in the new state.
	if g.bad {
		if rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return rng.Float64() < p
}

// MeanLossRate implements LossModel: the stationary loss probability.
func (g *GilbertElliott) MeanLossRate() float64 {
	denom := g.PGoodToBad + g.PBadToGood
	if denom == 0 {
		return g.LossGood
	}
	piBad := g.PGoodToBad / denom
	return piBad*g.LossBad + (1-piBad)*g.LossGood
}

// MeanBurstLength returns the expected number of consecutive packets spent in
// the Bad state once it is entered.
func (g *GilbertElliott) MeanBurstLength() float64 {
	if g.PBadToGood == 0 {
		return math.Inf(1)
	}
	return 1 / g.PBadToGood
}

// String implements LossModel.
func (g *GilbertElliott) String() string {
	return fmt.Sprintf("gilbert-elliott(pGB=%.4f pBG=%.4f mean=%.4f)", g.PGoodToBad, g.PBadToGood, g.MeanLossRate())
}

// Distance-based loss calibration constants. LossAtDistance follows a
// logistic curve calibrated so that a receiver ~25 m from the access point
// sees ≈1.5 % loss (the operating point of the paper's Figure 7) and loss
// rises dramatically over the following ten metres, matching the qualitative
// description in the paper and its companion study [16].
const (
	minLossRate      = 0.0005
	maxLossRate      = 0.60
	lossKneeDistance = 40.0 // metres at which loss reaches half of maxLossRate
	lossKneeWidth    = 4.5  // metres controlling how sharp the knee is
)

// LossAtDistance returns the mean packet loss rate at the given distance (in
// metres) from the access point.
func LossAtDistance(metres float64) float64 {
	if metres < 0 {
		metres = 0
	}
	logistic := 1 / (1 + math.Exp(-(metres-lossKneeDistance)/lossKneeWidth))
	return minLossRate + (maxLossRate-minLossRate)*logistic
}

// NewDistanceLoss returns a bursty loss model whose long-run loss rate
// matches LossAtDistance(metres). Bursts last meanBurst packets on average;
// meanBurst <= 1 selects independent (Bernoulli-like) losses.
func NewDistanceLoss(metres, meanBurst float64) *GilbertElliott {
	rate := LossAtDistance(metres)
	if meanBurst < 1 {
		meanBurst = 1
	}
	pBadToGood := 1 / meanBurst
	// With LossBad = 1 and LossGood ≈ 0, mean loss ≈ piBad, so solve
	// piBad = pGB / (pGB + pBG) = rate for pGB.
	pGoodToBad := rate * pBadToGood / (1 - rate)
	return NewGilbertElliott(pGoodToBad, pBadToGood, 0, 1)
}
