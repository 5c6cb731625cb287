package fecproxy

import (
	"errors"
	"fmt"
	"sync"

	"rapidware/internal/adapt"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// The loss-rate → (n,k) policy ladder lives in the transport-agnostic
// internal/adapt package so a single policy engine drives this legacy
// single-stream adaptive proxy, the responder raplets and the multi-session
// engine. The historical fecproxy names are aliases.
type (
	// AdaptivePolicy maps an observed loss rate to the (n,k) code that should
	// protect the stream; see adapt.Policy.
	AdaptivePolicy = adapt.Policy
	// AdaptiveLevel is one rung of an adaptive policy; see adapt.Level.
	AdaptiveLevel = adapt.Level
)

// DefaultAdaptivePolicy returns adapt.DefaultPolicy: the ladder modelled on
// the paper's environment.
func DefaultAdaptivePolicy() AdaptivePolicy { return adapt.DefaultPolicy() }

// AdaptiveEncoderFilter is an FEC encoder whose (n,k) parameters follow an
// AdaptivePolicy as the observed loss rate (reported by a receiver, an
// observer raplet, or the experiment harness) changes. Parameter switches
// take effect on group boundaries so every emitted group is self-consistent;
// receivers need no coordination because each packet carries its group's
// (k,n) in its header.
type AdaptiveEncoderFilter struct {
	*filter.Base

	policy   AdaptivePolicy
	streamID uint32

	mu       sync.Mutex
	loss     float64
	current  fec.Params
	pending  fec.Params
	enc      *fec.BlockEncoder
	switches uint64
}

// NewAdaptiveEncoderFilter returns an adaptive encoder starting at the
// policy's cleanest level.
func NewAdaptiveEncoderFilter(name string, policy AdaptivePolicy, streamID uint32) (*AdaptiveEncoderFilter, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if name == "" {
		name = "adaptive-fec-encoder"
	}
	start := policy.Select(0)
	coder, err := fec.CoderFor(start)
	if err != nil {
		return nil, err
	}
	af := &AdaptiveEncoderFilter{
		policy:   policy,
		streamID: streamID,
		current:  start,
		pending:  start,
		enc:      fec.NewBlockEncoder(coder, streamID),
	}
	af.Base = filter.NewPacketFunc(name,
		func(p *packet.Packet) ([]*packet.Packet, error) {
			if p.Kind != packet.KindData {
				return []*packet.Packet{p}, nil
			}
			af.mu.Lock()
			defer af.mu.Unlock()
			if err := af.maybeSwitchLocked(); err != nil {
				return nil, err
			}
			if af.current.N == af.current.K {
				// FEC disabled: forward the packet untouched.
				return []*packet.Packet{p}, nil
			}
			out, err := af.enc.Add(p.Payload)
			if errors.Is(err, fec.ErrShareSize) {
				return nil, fmt.Errorf("fecproxy: adaptive encode: %w: %w", filter.ErrBadFrame, err)
			}
			if err != nil {
				return nil, fmt.Errorf("fecproxy: adaptive encode: %w", err)
			}
			return out, nil
		},
		func() []*packet.Packet {
			af.mu.Lock()
			defer af.mu.Unlock()
			return af.enc.Flush()
		})
	return af, nil
}

// SetLossRate reports the link's observed loss rate; the code switches at the
// next group boundary.
func (af *AdaptiveEncoderFilter) SetLossRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	af.mu.Lock()
	defer af.mu.Unlock()
	af.loss = rate
	af.pending = af.policy.Select(rate)
}

// Current returns the code currently protecting the stream.
func (af *AdaptiveEncoderFilter) Current() fec.Params {
	af.mu.Lock()
	defer af.mu.Unlock()
	return af.current
}

// Switches returns how many times the code has changed.
func (af *AdaptiveEncoderFilter) Switches() uint64 {
	af.mu.Lock()
	defer af.mu.Unlock()
	return af.switches
}

// maybeSwitchLocked applies a pending parameter change at a group boundary.
// Caller holds af.mu.
func (af *AdaptiveEncoderFilter) maybeSwitchLocked() error {
	if af.pending == af.current {
		return nil
	}
	if af.enc.Pending() != 0 {
		return nil // mid-group: wait for the boundary
	}
	coder, err := fec.CoderFor(af.pending)
	if err != nil {
		return err
	}
	af.enc = fec.NewBlockEncoder(coder, af.streamID)
	af.current = af.pending
	af.switches++
	return nil
}

var _ filter.Filter = (*AdaptiveEncoderFilter)(nil)
