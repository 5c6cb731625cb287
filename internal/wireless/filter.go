package wireless

import (
	"math/rand"
	"sync"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// LossFilter is a chain stage that emulates a lossy wireless hop inside a
// proxy pipeline: framed packets passing through it are dropped according to
// a loss model, and optionally delayed by the link's serialization time. It
// lets a complete sender → proxy → wireless → receiver path be assembled as a
// single filter chain for experiments.
type LossFilter struct {
	*filter.Base

	mu      sync.Mutex
	rng     *rand.Rand
	model   LossModel
	dropped uint64
	passed  uint64
}

// NewLossFilter returns a loss-emulating frame filter. cfg may be the zero
// value to disable pacing; realTime selects whether serialization delay is
// actually slept. rng drives the loss model and must be provided explicitly
// (never the global math/rand source) so experiments and race tests are
// reproducible; the filter takes ownership and serializes access to it.
func NewLossFilter(name string, model LossModel, cfg LinkConfig, realTime bool, rng *rand.Rand) *LossFilter {
	if name == "" {
		name = "wireless:" + model.String()
	}
	if rng == nil {
		panic("wireless: NewLossFilter requires an explicit *rand.Rand")
	}
	lf := &LossFilter{
		rng:   rng,
		model: model,
	}
	lf.Base = filter.NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		if err := filter.CheckFrame(b); err != nil {
			return err
		}
		if realTime {
			time.Sleep(cfg.SerializationDelay(len(b.B)) + cfg.PropagationDelay)
		}
		lf.mu.Lock()
		lost := lf.model.Lost(lf.rng)
		if lost {
			lf.dropped++
		} else {
			lf.passed++
		}
		lf.mu.Unlock()
		if lost {
			b.Release()
			return nil
		}
		emit(b)
		return nil
	}, nil)
	return lf
}

// SetModel swaps the loss model at run time (e.g. when an experiment moves
// the simulated receiver away from the access point mid-stream).
func (lf *LossFilter) SetModel(model LossModel) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	lf.model = model
}

// Stats returns the number of packets dropped and passed so far.
func (lf *LossFilter) Stats() (dropped, passed uint64) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.dropped, lf.passed
}

// LossRate returns the observed loss fraction.
func (lf *LossFilter) LossRate() float64 {
	dropped, passed := lf.Stats()
	total := dropped + passed
	if total == 0 {
		return 0
	}
	return float64(dropped) / float64(total)
}

var _ filter.Filter = (*LossFilter)(nil)
