package raplet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
)

func TestBusUnsubscribe(t *testing.T) {
	bus := NewBus(16)
	rec := &recorder{}
	bus.Subscribe(EventLossRate, rec)
	bus.Start()
	defer bus.Stop()

	bus.Publish(Event{Type: EventLossRate, Value: 0.1})
	rec.waitFor(t, 1)

	if !bus.Unsubscribe(EventLossRate, "recorder") {
		t.Fatal("Unsubscribe did not find the responder")
	}
	if bus.Unsubscribe(EventLossRate, "recorder") {
		t.Fatal("second Unsubscribe found a removed responder")
	}
	if bus.Unsubscribe(EventBandwidth, "recorder") {
		t.Fatal("Unsubscribe matched the wrong event type")
	}
	bus.Publish(Event{Type: EventLossRate, Value: 0.2})
	bus.Publish(Event{Type: EventLossRate, Value: 0.3})
	// Give dispatch a chance to (incorrectly) deliver: publish a sentinel to a
	// fresh subscriber and wait for it, proving the queue drained.
	sentinel := &recorder{}
	bus.Subscribe(EventPreference, sentinel)
	bus.Publish(Event{Type: EventPreference})
	sentinel.waitFor(t, 1)
	if rec.count() != 1 {
		t.Fatalf("unsubscribed responder saw %d events, want 1", rec.count())
	}
}

// TestBusConcurrentPublishSubscribeUnsubscribe exercises the bus under
// simultaneous publishers, subscribers and unsubscribers; it exists to be run
// with -race.
func TestBusConcurrentPublishSubscribeUnsubscribe(t *testing.T) {
	bus := NewBus(1024)
	if err := bus.Start(); err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	const iterations = 200
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
				name := fmt.Sprintf("resp-%d-%d", g, i)
				bus.Subscribe(EventLossRate, ResponderFunc{RName: name, Fn: func(Event) error { return nil }})
				if !bus.Unsubscribe(EventLossRate, name) {
					t.Errorf("responder %s vanished before Unsubscribe", name)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				bus.Dropped()
				bus.Errors()
				bus.SubscriberTypes()
			}
		}(g)
	}
	wg.Wait()
	bus.Stop()
	if errs := bus.Errors(); len(errs) != 0 {
		t.Fatalf("responder errors: %v", errs)
	}
}

// TestBusPublishRacesStop hammers Publish from several goroutines while the
// bus stops, the shutdown shape the engine produces when a receiver report
// arrives on the read loop as session teardown stops the bus. A send on the
// closed queue would panic; the test passes iff nothing does.
func TestBusPublishRacesStop(t *testing.T) {
	for i := 0; i < 50; i++ {
		bus := NewBus(4)
		if err := bus.Start(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 20; j++ {
					bus.Publish(Event{Type: EventLossRate, Value: 0.5})
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			bus.Stop()
		}()
		close(start)
		wg.Wait()
	}
}

func TestWorstLossObserverTracksWorstReceiver(t *testing.T) {
	bus := NewBus(64)
	rec := &recorder{}
	bus.Subscribe(EventLossRate, rec)
	bus.Start()
	defer bus.Stop()

	obs := NewWorstLossObserver("", bus)
	if obs.Name() == "" {
		t.Fatal("default name empty")
	}
	obs.Report("rx-a", 0.02)
	obs.Report("rx-b", 0.15)
	obs.Report("rx-a", 0.01) // a improves; b is still the worst
	rec.waitFor(t, 3)

	rx, loss := obs.Worst()
	if rx != "rx-b" || loss != 0.15 {
		t.Fatalf("Worst = %q/%v, want rx-b/0.15", rx, loss)
	}
	if obs.Receivers() != 2 || obs.Reports() != 3 {
		t.Fatalf("Receivers=%d Reports=%d", obs.Receivers(), obs.Reports())
	}
	rec.mu.Lock()
	last := rec.events[len(rec.events)-1]
	rec.mu.Unlock()
	if last.Value != 0.15 {
		t.Fatalf("published event %+v, want the worst receiver's 0.15", last)
	}

	// The worst receiver leaving the group releases the code.
	obs.Forget("rx-b")
	if rx, loss := obs.Worst(); rx != "rx-a" || loss != 0.01 {
		t.Fatalf("after Forget: Worst = %q/%v", rx, loss)
	}

	// Out-of-range reports clamp.
	obs.Report("rx-c", 1.5)
	if _, loss := obs.Worst(); loss != 1 {
		t.Fatalf("clamped loss = %v, want 1", loss)
	}
}

// TestWorstLossObserverStaleness drives report aging with a fake clock: a
// receiver that stops reporting must not pin the worst-loss computation past
// the staleness window, and Sweep must publish the recomputed worst so
// responders converge away from the dead station.
func TestWorstLossObserverStaleness(t *testing.T) {
	bus := NewBus(64)
	rec := &recorder{}
	bus.Subscribe(EventLossRate, rec)
	bus.Start()
	defer bus.Stop()

	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	obs := NewWorstLossObserver("stale-test", bus)
	obs.SetStaleness(10*time.Second, clock)

	obs.Report("rx-dead", 0.30) // the station that will crash
	now = now.Add(4 * time.Second)
	obs.Report("rx-live", 0.02)
	if rx, loss := obs.Worst(); rx != "rx-dead" || loss != 0.30 {
		t.Fatalf("Worst = %q/%v, want rx-dead/0.30", rx, loss)
	}

	// Inside the window nothing ages out.
	if n := obs.Sweep(); n != 0 {
		t.Fatalf("Sweep inside window removed %d", n)
	}
	rec.waitFor(t, 2)

	// rx-dead's report crosses the window: the live receiver's next report
	// must no longer be dominated by the dead station.
	now = now.Add(7 * time.Second) // rx-dead 11s old, rx-live 7s old
	obs.Report("rx-live", 0.02)
	rec.waitFor(t, 3)
	if rx, loss := obs.Worst(); rx != "rx-live" || loss != 0.02 {
		t.Fatalf("after aging: Worst = %q/%v, want rx-live/0.02", rx, loss)
	}
	if obs.Receivers() != 1 || obs.Expired() != 1 {
		t.Fatalf("Receivers=%d Expired=%d, want 1/1", obs.Receivers(), obs.Expired())
	}

	// The last receiver going silent decays to a clean-link publication.
	now = now.Add(11 * time.Second)
	if n := obs.Sweep(); n != 1 {
		t.Fatalf("Sweep removed %d, want 1", n)
	}
	rec.waitFor(t, 4)
	rec.mu.Lock()
	last := rec.events[len(rec.events)-1]
	rec.mu.Unlock()
	if last.Value != 0 {
		t.Fatalf("decay event %+v, want clean-link 0", last)
	}
	if obs.Receivers() != 0 || obs.Expired() != 2 {
		t.Fatalf("Receivers=%d Expired=%d after full decay", obs.Receivers(), obs.Expired())
	}
	// Sweep with nothing tracked publishes nothing further.
	if n := obs.Sweep(); n != 0 {
		t.Fatalf("idle Sweep removed %d", n)
	}
}

func TestWorstLossObserverEmpty(t *testing.T) {
	obs := NewWorstLossObserver("idle", nil)
	if rx, loss := obs.Worst(); rx != "" || loss != 0 {
		t.Fatalf("empty Worst = %q/%v", rx, loss)
	}
	obs.Report("rx", 0.5) // nil bus must not panic
}

// newTestLive builds a started two-endpoint chain whose plan is a bare
// fec-adapt marker — the shape the engine hands its responders.
func newTestLive(t *testing.T) (*compose.Live, *filter.Chain) {
	t.Helper()
	c := filter.NewChain("adapt-test")
	if err := c.Append(filter.NewNull("in")); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(filter.NewNull("out")); err != nil {
		t.Fatal(err)
	}
	plan, err := compose.Parse(compose.KindFECAdapt, compose.ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	live, err := compose.Attach(c, nil, compose.Env{StreamID: 7}, compose.ModeBranch, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop() })
	return live, c
}

func TestChainFECResponderLifecycle(t *testing.T) {
	live, chain := newTestLive(t)
	r, err := NewChainFECResponder("", live, adapt.DefaultPolicy(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() == "" {
		t.Fatal("default name empty")
	}
	// Irrelevant events are ignored.
	if err := r.Handle(Event{Type: EventBandwidth, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if r.Active() || chain.Len() != 2 {
		t.Fatal("responder touched the chain without a loss event")
	}
	if got := r.Current(); got != (fec.Params{K: 1, N: 1}) {
		t.Fatalf("initial Current = %v", got)
	}

	// 10% loss splices the encoder in at the (8,4) level.
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.10}); err != nil {
		t.Fatal(err)
	}
	if !r.Active() || chain.Len() != 3 {
		t.Fatalf("encoder not inserted: active=%v len=%d", r.Active(), chain.Len())
	}
	if got := r.Current(); got != (fec.Params{K: 4, N: 8}) {
		t.Fatalf("Current after 10%% loss = %v", got)
	}
	if r.Retunes() != 1 {
		t.Fatalf("Retunes = %d, want 1", r.Retunes())
	}

	// Loss moving between FEC levels retunes in place (no splice).
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.30}); err != nil {
		t.Fatal(err)
	}
	if chain.Len() != 3 {
		t.Fatal("in-place retune changed the chain length")
	}
	if got := r.Current(); got != (fec.Params{K: 4, N: 12}) {
		t.Fatalf("Current after 30%% loss = %v", got)
	}

	// Same level again: no retune counted.
	before := r.Retunes()
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.28}); err != nil {
		t.Fatal(err)
	}
	if r.Retunes() != before {
		t.Fatal("unchanged level counted as a retune")
	}
	if r.LastLoss() != 0.28 {
		t.Fatalf("LastLoss = %v", r.LastLoss())
	}

	// Clean link splices the encoder out.
	if err := r.Handle(Event{Type: EventLossRate, Value: 0}); err != nil {
		t.Fatal(err)
	}
	if r.Active() || chain.Len() != 2 {
		t.Fatalf("encoder not removed: active=%v len=%d", r.Active(), chain.Len())
	}
	if got := r.Current(); got != (fec.Params{K: 1, N: 1}) {
		t.Fatalf("Current after recovery = %v", got)
	}

	// And loss returning re-inserts a fresh encoder.
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.05}); err != nil {
		t.Fatal(err)
	}
	if !r.Active() || chain.Len() != 3 {
		t.Fatal("encoder not re-inserted after recovery cycle")
	}
}

// TestChainFECResponderFECOnlyPolicy guards against the reconciliation bug
// where a policy with no clean rung (its lowest level already demands FEC)
// never inserted the encoder because the selection matched the initial
// "current" value.
func TestChainFECResponderFECOnlyPolicy(t *testing.T) {
	live, chain := newTestLive(t)
	policy := adapt.Policy{Levels: []adapt.Level{{LossAtLeast: 0.10, Params: fec.Params{K: 4, N: 8}}}}
	r, err := NewChainFECResponder("fec-only", live, policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.20}); err != nil {
		t.Fatal(err)
	}
	if !r.Active() || chain.Len() != 3 {
		t.Fatalf("FEC-only policy never spliced the encoder: active=%v len=%d", r.Active(), chain.Len())
	}
	if r.Retunes() != 1 {
		t.Fatalf("Retunes = %d, want 1", r.Retunes())
	}
}

func TestChainFECResponderValidation(t *testing.T) {
	if _, err := NewChainFECResponder("x", nil, adapt.DefaultPolicy(), 1); err == nil {
		t.Fatal("expected error for nil live chain")
	}
	live, _ := newTestLive(t)
	if _, err := NewChainFECResponder("x", live, adapt.Policy{}, 1); err == nil {
		t.Fatal("expected error for empty policy")
	}
}

// TestChainFECResponderDormantWithoutMarker exercises the recompose-vs-
// responder contract: when an operator rewrites the plan without the
// fec-adapt marker, the responder goes dormant instead of fighting the
// operator, and resumes once a recompose restores the marker.
func TestChainFECResponderDormantWithoutMarker(t *testing.T) {
	live, chain := newTestLive(t)
	r, err := NewChainFECResponder("dormant", live, adapt.DefaultPolicy(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.10}); err != nil {
		t.Fatal(err)
	}
	if !r.Active() || chain.Len() != 3 {
		t.Fatal("encoder not spliced before the recompose")
	}

	// Operator recomposes the marker away: the active encoder goes with it.
	empty, err := compose.Parse("", compose.ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(empty); err != nil {
		t.Fatal(err)
	}
	if r.Active() || chain.Len() != 2 {
		t.Fatal("recompose did not remove the managed encoder")
	}
	// Loss events are acknowledged but change nothing.
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.30}); err != nil {
		t.Fatalf("dormant responder errored: %v", err)
	}
	if r.Active() || chain.Len() != 2 {
		t.Fatal("dormant responder touched the chain")
	}

	// Restoring the marker wakes the loop on the next event.
	restored, err := compose.Parse(compose.KindFECAdapt, compose.ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(restored); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.30}); err != nil {
		t.Fatal(err)
	}
	if !r.Active() || chain.Len() != 3 {
		t.Fatal("responder did not resume after the marker returned")
	}
}
