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
	defer o.mu.Unlock()
	switch {
	case !o.reported && loss >= o.threshold:
		o.reported = true
		o.events++
		o.publish(loss)
	case o.reported && loss <= o.threshold-o.hysteresis:
		o.reported = false
		o.events++
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

// WorstLossObserver aggregates receiver-reported loss rates across a fan-out
// group and publishes the *worst* receiver's loss on every report, the
// multicast argument of the paper: one proxy-side FEC code must cover the
// most degraded station, because a single parity packet repairs different
// losses at different receivers. Reports typically originate from
// packet.Report feedback datagrams arriving at the proxy engine.
type WorstLossObserver struct {
	name string
	bus  *Bus

	mu      sync.Mutex
	loss    map[string]float64
	rtt     map[string]uint32    // last reported RTT per receiver (0 unknown)
	seen    map[string]time.Time // last report per receiver (staleness aging)
	window  time.Duration        // 0 disables aging
	now     func() time.Time
	reports uint64
	expired uint64
}

// NewWorstLossObserver returns an observer publishing EventLossRate with the
// worst per-receiver loss each time any receiver reports.
func NewWorstLossObserver(name string, bus *Bus) *WorstLossObserver {
	if name == "" {
		name = "worst-loss-observer"
	}
	return &WorstLossObserver{
		name: name,
		bus:  bus,
		loss: make(map[string]float64),
		rtt:  make(map[string]uint32),
		seen: make(map[string]time.Time),
		now:  time.Now,
	}
}

// SetStaleness configures report aging: a receiver whose last report is older
// than window no longer participates in (or pins) the worst-loss computation
// — a station that crashed without leaving the group would otherwise hold the
// code at its last reported level forever. window <= 0 disables aging (the
// default). clock overrides the time source for tests; nil keeps time.Now.
func (o *WorstLossObserver) SetStaleness(window time.Duration, clock func() time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.window = window
	if clock != nil {
		o.now = clock
	}
}

// Name implements Observer.
func (o *WorstLossObserver) Name() string { return o.name }

// Start implements Observer; the observer is passive (driven by Report).
func (o *WorstLossObserver) Start() error { return nil }

// Stop implements Observer.
func (o *WorstLossObserver) Stop() error { return nil }

// Report records one receiver's observed loss rate (clamped to [0,1]) and
// publishes the group-wide worst. The receiver's RTT, if previously known,
// is left unchanged; use ReportLink to update both.
func (o *WorstLossObserver) Report(receiver string, loss float64) {
	o.reportLink(receiver, loss, 0, false)
}

// ReportLink records one receiver's observed loss rate and round-trip
// estimate (milliseconds, 0 unknown) and publishes the group-wide worst
// along with the worst receiver's RTT, so mechanism-choosing responders see
// the link conditions of the station that drives the code.
func (o *WorstLossObserver) ReportLink(receiver string, loss float64, rttMillis uint32) {
	o.reportLink(receiver, loss, rttMillis, true)
}

func (o *WorstLossObserver) reportLink(receiver string, loss float64, rttMillis uint32, setRTT bool) {
	if loss < 0 {
		loss = 0
	}
	if loss > 1 {
		loss = 1
	}
	o.mu.Lock()
	o.loss[receiver] = loss
	if setRTT {
		o.rtt[receiver] = rttMillis
	}
	o.seen[receiver] = o.now()
	o.reports++
	o.expireLocked()
	worstRx, worst := o.worstLocked()
	worstRTT := o.rtt[worstRx]
	o.mu.Unlock()
	if o.bus == nil {
		return
	}
	o.bus.Publish(Event{
		Type:      EventLossRate,
		Source:    o.name,
		Value:     worst,
		RTTMillis: worstRTT,
	})
}

// Forget drops a receiver (e.g. after it leaves the multicast group) so a
// stale report cannot pin the code at a strong level forever.
func (o *WorstLossObserver) Forget(receiver string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.loss, receiver)
	delete(o.rtt, receiver)
	delete(o.seen, receiver)
}

// Sweep ages out receivers whose last report is older than the configured
// staleness window and, when any were dropped, publishes the recomputed worst
// so subscribed responders converge away from the dead station's last report
// (all the way to a clean-link event when no receiver remains). It returns
// how many receivers were aged out. Callers run this from a control path —
// the engine sweeps each session's loops whenever any receiver reports.
func (o *WorstLossObserver) Sweep() int {
	o.mu.Lock()
	removed := o.expireLocked()
	worstRx, worst := o.worstLocked()
	worstRTT := o.rtt[worstRx]
	o.mu.Unlock()
	if removed == 0 {
		return 0
	}
	if o.bus != nil {
		o.bus.Publish(Event{
			Type:      EventLossRate,
			Source:    o.name,
			Value:     worst,
			RTTMillis: worstRTT,
		})
	}
	return removed
}

// Expired returns how many receivers have been aged out by staleness.
func (o *WorstLossObserver) Expired() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.expired
}

// expireLocked drops receivers whose last report fell outside the staleness
// window, returning how many were removed; caller holds o.mu.
func (o *WorstLossObserver) expireLocked() int {
	if o.window <= 0 {
		return 0
	}
	cutoff := o.now().Add(-o.window)
	removed := 0
	for rx, at := range o.seen {
		if at.Before(cutoff) {
			delete(o.loss, rx)
			delete(o.rtt, rx)
			delete(o.seen, rx)
			removed++
		}
	}
	o.expired += uint64(removed)
	return removed
}

// Worst returns the worst-reporting receiver and its loss rate (zero values
// when nothing has reported).
func (o *WorstLossObserver) Worst() (receiver string, loss float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.worstLocked()
}

// worstLocked scans for the maximum loss; caller holds o.mu. Ties break to
// the lexicographically smallest receiver name for determinism.
func (o *WorstLossObserver) worstLocked() (string, float64) {
	var worstRx string
	worst := -1.0
	for rx, l := range o.loss {
		if l > worst || (l == worst && rx < worstRx) {
			worstRx, worst = rx, l
		}
	}
	if worst < 0 {
		return "", 0
	}
	return worstRx, worst
}

// Receivers returns how many receivers have reported.
func (o *WorstLossObserver) Receivers() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.loss)
}

// Reports returns how many reports have been recorded.
func (o *WorstLossObserver) Reports() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reports
}

var (
	_ Observer = (*LossRateObserver)(nil)
	_ Observer = (*WorstLossObserver)(nil)
)
