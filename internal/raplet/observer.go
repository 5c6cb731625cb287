package raplet

import (
	"sync"
	"time"

	"rapidware/internal/metrics"
)

// Observer is a monitoring raplet: it watches some aspect of the system and
// publishes events to a Bus when something relevant happens.
type Observer interface {
	// Name identifies the observer.
	Name() string
	// Start begins monitoring; Stop ends it.
	Start() error
	Stop() error
}

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

// Name implements Observer.
func (o *LossRateObserver) Name() string { return o.name }

// Start implements Observer; the loss observer is passive (event driven by
// ObservePacket), so Start is a no-op provided for interface symmetry.
func (o *LossRateObserver) Start() error { return nil }

// Stop implements Observer.
func (o *LossRateObserver) Stop() error { return nil }

// Events returns how many events this observer has published.
func (o *LossRateObserver) Events() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.events
}

// LossRate returns the current windowed loss rate.
func (o *LossRateObserver) LossRate() float64 {
	return 1 - o.window.Rate()
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

var _ Observer = (*LossRateObserver)(nil)
