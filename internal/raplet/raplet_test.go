package raplet

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// recorder collects the events a responder receives.
type recorder struct {
	mu     sync.Mutex
	events []Event
	err    error
}

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Handle(e Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
	return r.err
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

func TestBusDispatchesToSubscribers(t *testing.T) {
	bus := NewBus()
	rec := &recorder{}
	bus.Subscribe(EventLossRate, rec)
	bus.Publish(Event{Type: EventLossRate, Value: 0.1})
	bus.Publish(Event{Type: EventBandwidth, Value: 1e6}) // no subscriber
	if rec.count() != 1 {
		t.Fatalf("events = %d, want 1 delivered before Publish returned", rec.count())
	}
	if len(bus.subscribers) != 1 || len(bus.subscribers[EventLossRate]) != 1 {
		t.Fatalf("subscribers = %v, want one loss-rate responder", bus.subscribers)
	}
}

func TestBusSetsTimestamp(t *testing.T) {
	bus := NewBus()
	rec := &recorder{}
	bus.Subscribe(EventPreference, rec)
	bus.Publish(Event{Type: EventPreference})
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.events) != 1 || rec.events[0].Time.IsZero() {
		t.Fatalf("events %+v, want one with a timestamp", rec.events)
	}
}

func TestBusCollectsResponderErrors(t *testing.T) {
	bus := NewBus()
	rec := &recorder{err: errors.New("responder failure")}
	bus.Subscribe(EventLossRate, rec)
	bus.Publish(Event{Type: EventLossRate, Value: 0.5})
	if len(bus.Errors()) != 1 {
		t.Fatalf("Errors = %v", bus.Errors())
	}
}

// TestBusConcurrentPublishSubscribe exercises the bus under simultaneous
// publishers, subscribers and readers; it exists to be run with -race.
// Deliveries must never overlap.
func TestBusConcurrentPublishSubscribe(t *testing.T) {
	bus := NewBus()
	const goroutines = 4
	const iterations = 200
	var inside, overlaps sync.Mutex
	overlapped := false
	handler := func(Event) error {
		if !inside.TryLock() {
			overlaps.Lock()
			overlapped = true
			overlaps.Unlock()
			return nil
		}
		inside.Unlock()
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(3)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				bus.Publish(Event{Type: EventLossRate, Source: fmt.Sprintf("pub-%d", g), Value: float64(i) / iterations})
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				bus.Subscribe(EventLossRate, funcResponder(handler))
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				bus.Errors()
			}
		}()
	}
	wg.Wait()
	if overlapped {
		t.Fatal("two deliveries ran at once")
	}
	if errs := bus.Errors(); len(errs) != 0 {
		t.Fatalf("responder errors: %v", errs)
	}
}

// funcResponder adapts a function to Responder for tests.
type funcResponder func(Event) error

func (f funcResponder) Name() string         { return "func" }
func (f funcResponder) Handle(e Event) error { return f(e) }

func TestLossRateObserverThresholdCrossing(t *testing.T) {
	bus := NewBus()
	rec := &recorder{}
	bus.Subscribe(EventLossRate, rec)

	obs := NewLossRateObserver("", bus, 20, 0.10, 0.05)
	if obs.name == "" {
		t.Fatal("default name empty")
	}

	// All packets delivered: no events.
	for i := 0; i < 40; i++ {
		obs.ObservePacket(true)
	}
	if obs.events != 0 {
		t.Fatalf("events = %d before any loss", obs.events)
	}
	// Burst of losses drives the windowed rate above 10%: exactly one event.
	for i := 0; i < 10; i++ {
		obs.ObservePacket(false)
	}
	if obs.events != 1 {
		t.Fatalf("events = %d after loss burst, want 1", obs.events)
	}
	if loss := 1 - obs.window.Rate(); loss < 0.10 {
		t.Fatalf("loss rate = %v, want >= 0.10", loss)
	}
	// Recovery drives it back below threshold-hysteresis: one more event.
	for i := 0; i < 40; i++ {
		obs.ObservePacket(true)
	}
	if obs.events != 2 || rec.count() != 2 {
		t.Fatalf("events = %d (%d delivered) after recovery, want 2", obs.events, rec.count())
	}
}

func TestLossRateObserverNeedsMinimumSignal(t *testing.T) {
	obs := NewLossRateObserver("min", nil, 100, 0.01, 0.005)
	for i := 0; i < 5; i++ {
		obs.ObservePacket(false)
	}
	if obs.events != 0 {
		t.Fatal("observer reported with fewer than 8 observations")
	}
}

// newAdaptiveLive attaches plan to a bare FrameChain: the responder tests
// watch the plan, not the data.
func newAdaptiveLive(t *testing.T, plan string) *compose.Live {
	t.Helper()
	p, err := compose.Parse(plan, compose.ModeChain)
	if err != nil {
		t.Fatal(err)
	}
	live, err := compose.Attach(filter.NewFrameChain((*packet.Buf).Release), compose.Default(), compose.Env{StreamID: 1}, compose.ModeChain, p)
	if err != nil {
		t.Fatal(err)
	}
	return live
}

// TestThresholdResponder drives one responder per direction: an FEC encoder
// switched in while loss is above the threshold, and a rate limiter switched
// in while bandwidth is below it.
func TestThresholdResponder(t *testing.T) {
	type step struct {
		value  float64
		active bool
		plan   string
	}
	cases := []struct {
		name      string
		plan      string
		stage     string
		position  int
		threshold float64
		above     bool
		steps     []step
	}{
		{"fec-above", "", "fec-encode=6/4", 0, 0.05, true, []step{
			{0.01, false, ""},
			{0.10, true, "fec-encode=6/4"},
			{0.20, true, "fec-encode=6/4"}, // no second insertion
			{0.01, false, ""},
		}},
		{"ratelimit-below", "counting", "ratelimit=32000", 1, 64_000, false, []step{
			{1e6, false, "counting"},
			{32_000, true, "counting,ratelimit=32000"},
			{5e6, false, "counting"},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			live := newAdaptiveLive(t, c.plan)
			r, err := NewThresholdResponder("", live, c.stage, c.position, c.threshold, c.above)
			if err != nil {
				t.Fatal(err)
			}
			if r.Name() == "" {
				t.Fatal("default name empty")
			}
			for i, st := range c.steps {
				if err := r.Handle(Event{Type: EventLossRate, Value: st.value}); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if r.Active() != st.active || live.String() != st.plan {
					t.Fatalf("step %d (value %v): active=%v plan=%q, want %v %q", i, st.value, r.Active(), live.String(), st.active, st.plan)
				}
			}
			if ins, rem := r.Stats(); ins != 1 || rem != 1 {
				t.Fatalf("Stats = %d/%d, want 1/1", ins, rem)
			}
		})
	}
}

// TestFECResponderValidation checks the constructor of a threshold responder
// that switches in an FEC encoder.
func TestFECResponderValidation(t *testing.T) {
	if _, err := NewThresholdResponder("x", nil, "fec-encode=6/4", 0, 0.1, true); err == nil {
		t.Fatal("expected error for nil live chain")
	}
	live := newAdaptiveLive(t, "")
	for _, stage := range []string{"fec-encode=3/9", "fec-adapt"} {
		if _, err := NewThresholdResponder("x", live, stage, 0, 0.1, true); err == nil {
			t.Fatalf("stage %q accepted", stage)
		}
	}
}

// TestSpecResponderValidation checks the constructor of a threshold responder
// for stage specs in general.
func TestSpecResponderValidation(t *testing.T) {
	if _, err := NewThresholdResponder("x", nil, "null", 0, 0, true); err == nil {
		t.Fatal("expected error for nil live chain")
	}
	live := newAdaptiveLive(t, "")
	for _, stage := range []string{"", "bogus", "null,null"} {
		if _, err := NewThresholdResponder("x", live, stage, 0, 0, true); err == nil {
			t.Fatalf("stage %q accepted", stage)
		}
	}
}

// TestEndToEndAdaptiveFEC wires the whole adaptation loop together: an
// observer feeding a bus, a threshold responder reconfiguring a live chain,
// and a simulated walk away from the access point that degrades the link.
func TestEndToEndAdaptiveFEC(t *testing.T) {
	live := newAdaptiveLive(t, "")
	bus := NewBus()
	responder, err := NewThresholdResponder("adaptive-fec", live, "fec-encode=6/4", 0, 0.05, true)
	if err != nil {
		t.Fatal(err)
	}
	bus.Subscribe(EventLossRate, responder)
	observer := NewLossRateObserver("link-monitor", bus, 50, 0.05, 0.02)

	// Near the access point: essentially no loss.
	for i := 0; i < 200; i++ {
		observer.ObservePacket(true)
	}
	// Walk down the hall: loss climbs to ~20%.
	for i := 0; i < 200; i++ {
		observer.ObservePacket(i%5 != 0)
	}
	if !responder.Active() {
		t.Fatal("FEC filter was not inserted when the link degraded")
	}
	if live.String() != "fec-encode=6/4" {
		t.Fatalf("plan = %q", live.String())
	}

	// Walk back: loss disappears, the filter is removed.
	for i := 0; i < 400; i++ {
		observer.ObservePacket(true)
	}
	if responder.Active() {
		t.Fatal("FEC filter was not removed when the link recovered")
	}
	if errs := bus.Errors(); len(errs) != 0 {
		t.Fatalf("responder errors: %v", errs)
	}
}
