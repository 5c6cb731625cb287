package raplet

import (
	"sync"
	"time"

	"rapidware/internal/metrics"
)

// LossRateObserver tracks packet delivery outcomes over a sliding window and
// publishes an EventLossRate whenever the loss rate crosses the report
// threshold hysteresis. Packet outcomes are fed by whatever component sees
// them (a wireless receiver, a decoder filter, a transport).
type LossRateObserver struct {
	name       string
	bus        *Bus
	window     *metrics.SlidingRate
	threshold  float64
	hysteresis float64

	mu       sync.Mutex
	reported bool // whether we last reported loss above threshold
	events   uint64
}

// NewLossRateObserver returns an observer that publishes when the loss rate
// over the last windowSize packets rises above threshold, and again when it
// falls back below threshold-hysteresis (to avoid flapping).
func NewLossRateObserver(name string, bus *Bus, windowSize int, threshold, hysteresis float64) *LossRateObserver {
	if name == "" {
		name = "loss-observer"
	}
	return &LossRateObserver{
		name:       name,
		bus:        bus,
		window:     metrics.NewSlidingRate(windowSize),
		threshold:  threshold,
		hysteresis: hysteresis,
	}
}

// ObservePacket records one delivery outcome (received true / lost false) and
// publishes threshold-crossing events.
func (o *LossRateObserver) ObservePacket(received bool) {
	o.window.Observe(received)
	if o.window.Observations() < 8 {
		return // not enough signal yet
	}
	loss := 1 - o.window.Rate()

	o.mu.Lock()
	crossed := (!o.reported && loss >= o.threshold) || (o.reported && loss <= o.threshold-o.hysteresis)
	if crossed {
		o.reported = !o.reported
		o.events++
	}
	o.mu.Unlock()
	// Published unlocked: the bus runs its responders before returning.
	if crossed {
		o.publish(loss)
	}
}

func (o *LossRateObserver) publish(loss float64) {
	if o.bus == nil {
		return
	}
	o.bus.Publish(Event{
		Type:   EventLossRate,
		Source: o.name,
		Value:  loss,
		Time:   time.Now(),
	})
}
