// Package raplet implements RAPIDware's adaptive components: observers that
// monitor the running system and responders that reconfigure it when relevant
// events occur (Figure 2 of the paper). The canonical use is demand-driven
// FEC: a loss-rate observer watches the quality of a wireless link and a
// responder inserts or removes an FEC encoder filter in the proxy's chain as
// the loss rate crosses configured thresholds.
package raplet

import (
	"errors"
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
	// RTTMillis carries the reporting link's round-trip estimate in
	// milliseconds alongside loss-rate events, 0 when unknown. Responders
	// that choose among repair mechanisms (FEC vs ARQ) consult it.
	RTTMillis uint32
	// Time is when the observation was made.
	Time time.Time
}

// Responder reacts to events by reconfiguring the system, the paper's
// "responder raplet". Handle is called synchronously by the Bus dispatch
// goroutine, so implementations should not block for long periods.
type Responder interface {
	// Name identifies the responder.
	Name() string
	// Handle processes one event.
	Handle(Event) error
}

// ResponderFunc adapts a function to the Responder interface.
type ResponderFunc struct {
	RName string
	Fn    func(Event) error
}

// Name implements Responder.
func (r ResponderFunc) Name() string { return r.RName }

// Handle implements Responder.
func (r ResponderFunc) Handle(e Event) error { return r.Fn(e) }

// Bus routes events from observers to the responders subscribed to their
// type. Dispatch happens on a single background goroutine (started by Start)
// so responders never race with one another, mirroring the single
// ControlThread managing a proxy.
type Bus struct {
	mu          sync.Mutex
	subscribers map[EventType][]Responder
	queue       chan Event
	done        chan struct{}
	started     bool
	stopped     bool
	dropped     uint64
	errs        []error
}

// NewBus returns a bus with the given queue depth (<=0 selects a default).
func NewBus(depth int) *Bus {
	if depth <= 0 {
		depth = 128
	}
	return &Bus{
		subscribers: make(map[EventType][]Responder),
		queue:       make(chan Event, depth),
		done:        make(chan struct{}),
	}
}

// Subscribe registers a responder for an event type. Subscriptions may be
// added before or after Start.
func (b *Bus) Subscribe(t EventType, r Responder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subscribers[t] = append(b.subscribers[t], r)
}

// Unsubscribe removes the first responder with the given name from an event
// type's subscription list and reports whether one was found. Matching is by
// name (not identity) so function-valued responders, which are not
// comparable, can be unsubscribed too.
func (b *Bus) Unsubscribe(t EventType, name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.subscribers[t]
	for i, r := range subs {
		if r.Name() == name {
			b.subscribers[t] = append(append([]Responder(nil), subs[:i]...), subs[i+1:]...)
			return true
		}
	}
	return false
}

// Publish enqueues an event for dispatch. Events published when the queue is
// full are counted as dropped rather than blocking the observer. The
// stopped-check and the (non-blocking) send happen under one critical
// section, and Stop closes the queue under the same lock, so Publish racing
// Stop from another goroutine can never send on a closed channel.
func (b *Bus) Publish(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return
	}
	select {
	case b.queue <- e:
	default:
		b.dropped++
	}
}

// Start launches the dispatch goroutine.
func (b *Bus) Start() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started {
		return errors.New("raplet: bus already started")
	}
	b.started = true
	go b.dispatch()
	return nil
}

func (b *Bus) dispatch() {
	defer close(b.done)
	for e := range b.queue {
		b.mu.Lock()
		subs := append([]Responder(nil), b.subscribers[e.Type]...)
		b.mu.Unlock()
		for _, r := range subs {
			if err := r.Handle(e); err != nil {
				b.mu.Lock()
				b.errs = append(b.errs, fmt.Errorf("raplet: responder %q: %w", r.Name(), err))
				b.mu.Unlock()
			}
		}
	}
}

// Stop stops dispatch after draining queued events. It is idempotent and
// safe against concurrent Publish calls (see Publish).
func (b *Bus) Stop() {
	b.mu.Lock()
	if !b.started || b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	close(b.queue)
	b.mu.Unlock()
	<-b.done
}

// Dropped returns the number of events discarded because the queue was full.
func (b *Bus) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
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
