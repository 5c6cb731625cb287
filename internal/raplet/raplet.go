// Package raplet implements RAPIDware's adaptive components: observers that
// monitor the running system and responders that reconfigure it when relevant
// events occur (Figure 2 of the paper). The canonical use is demand-driven
// FEC: a loss-rate observer watches the quality of a wireless link and a
// responder inserts or removes an FEC encoder filter in the proxy's chain as
// the loss rate crosses configured thresholds.
//
// The package is the paper's demonstrator, driven by experiment E2b
// (experiment.RunAdaptiveWalk). The multi-session engine does not use it: it
// runs one adaptation loop of its own per receiver (internal/engine/adapt.go),
// which decides and applies each receiver report where it is read.
package raplet

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// EventType classifies events flowing between observers and responders.
type EventType string

// Event types used by the built-in raplets. Applications may define more.
const (
	// EventLossRate reports the observed packet loss rate on a link (Value is
	// the loss fraction in [0,1]).
	EventLossRate EventType = "loss-rate"
	// EventBandwidth reports available bandwidth in bits per second.
	EventBandwidth EventType = "bandwidth"
	// EventMembership reports a device joining or leaving a session.
	EventMembership EventType = "membership"
	// EventPreference reports a change in user or application policy.
	EventPreference EventType = "preference"
)

// Event is one observation published on the Bus.
type Event struct {
	// Type classifies the event.
	Type EventType
	// Source names the observer or component that produced it.
	Source string
	// Value is the numeric payload (loss rate, bandwidth, ...).
	Value float64
	// Time is when the observation was made.
	Time time.Time
}

// Responder reacts to events by reconfiguring the system, the paper's
// "responder raplet". Handle is called synchronously by Publish, so
// implementations should not block for long periods, and must not publish on
// the bus that called them.
type Responder interface {
	// Name identifies the responder.
	Name() string
	// Handle processes one event.
	Handle(Event) error
}

// Bus routes events from observers to the responders subscribed to their
// type. Publish delivers each event before it returns, under one dispatch
// lock, so responders never race with one another — the single ControlThread
// managing a proxy.
type Bus struct {
	dispatch sync.Mutex // held while a published event is delivered

	mu          sync.Mutex // guards the fields below
	subscribers map[EventType][]Responder
	errs        []error
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subscribers: make(map[EventType][]Responder)}
}

// Subscribe registers a responder for an event type. It takes effect from the
// next Publish.
func (b *Bus) Subscribe(t EventType, r Responder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subscribers[t] = append(b.subscribers[t], r)
}

// Publish delivers an event to the responders subscribed to its type, in
// subscription order, and returns when they have handled it. Responder errors
// are collected for Errors.
func (b *Bus) Publish(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b.dispatch.Lock()
	defer b.dispatch.Unlock()
	b.mu.Lock()
	subs := b.subscribers[e.Type] // Subscribe only appends, so this stays valid
	b.mu.Unlock()
	for _, r := range subs {
		if err := r.Handle(e); err != nil {
			b.mu.Lock()
			b.errs = append(b.errs, fmt.Errorf("raplet: responder %q: %w", r.Name(), err))
			b.mu.Unlock()
		}
	}
}

// Errors returns the responder errors collected so far.
func (b *Bus) Errors() []error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]error(nil), b.errs...)
}

// SubscriberTypes returns the event types that have at least one responder,
// sorted for deterministic reporting.
func (b *Bus) SubscriberTypes() []EventType {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]EventType, 0, len(b.subscribers))
	for t := range b.subscribers {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
