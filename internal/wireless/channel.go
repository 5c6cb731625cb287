package wireless

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rapidware/internal/packet"
)

// Errors returned by the channel.
var (
	// ErrReceiverExists is returned when attaching a receiver under a name
	// that is already in use.
	ErrReceiverExists = errors.New("wireless: receiver already attached")
	// ErrChannelClosed is returned by Broadcast after Close.
	ErrChannelClosed = errors.New("wireless: channel closed")
)

// LinkConfig describes the physical characteristics of the simulated medium.
type LinkConfig struct {
	// BandwidthBps is the raw link bandwidth in bits per second.
	BandwidthBps int
	// PropagationDelay is the fixed one-way latency added to every packet.
	PropagationDelay time.Duration
	// MaxJitter is the upper bound of the uniform random jitter added to
	// every delivered packet.
	MaxJitter time.Duration
}

// WaveLAN2Mbps returns the link configuration of the paper's testbed: the
// 2 Mbps WaveLAN network used for the FEC audio experiments.
func WaveLAN2Mbps() LinkConfig {
	return LinkConfig{
		BandwidthBps:     2_000_000,
		PropagationDelay: 2 * time.Millisecond,
		MaxJitter:        4 * time.Millisecond,
	}
}

// SerializationDelay returns how long a frame of the given size occupies the
// medium.
func (c LinkConfig) SerializationDelay(bytes int) time.Duration {
	if c.BandwidthBps <= 0 {
		return 0
	}
	bits := float64(bytes * 8)
	seconds := bits / float64(c.BandwidthBps)
	return time.Duration(seconds * float64(time.Second))
}

// Delivery describes what happened to one packet at one receiver.
type Delivery struct {
	Packet  *packet.Packet
	Lost    bool
	Latency time.Duration
}

// Receiver is one station attached to the channel. Deliveries appear on its
// buffer in transmission order; lost packets are simply absent (stations on a
// real WLAN receive no indication of loss either).
type Receiver struct {
	name    string
	model   LossModel
	rng     *rand.Rand
	buffer  *packet.Buffer
	mu      sync.Mutex
	rx      uint64
	dropped uint64
}

// Name returns the receiver's name.
func (r *Receiver) Name() string { return r.name }

// Buffer returns the receiver's delivery buffer.
func (r *Receiver) Buffer() *packet.Buffer { return r.buffer }

// Stats returns the number of packets received and lost at this receiver.
func (r *Receiver) Stats() (received, lost uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rx, r.dropped
}

// LossRate returns the observed loss fraction at this receiver.
func (r *Receiver) LossRate() float64 {
	rx, lost := r.Stats()
	total := rx + lost
	if total == 0 {
		return 0
	}
	return float64(lost) / float64(total)
}

// Channel is a simulated broadcast wireless medium. The access point
// multicasts every packet to all attached receivers; each receiver applies
// its own independent loss model, matching the paper's observation that a
// single parity packet can repair different losses at different stations.
//
// The channel is safe for concurrent use. Time can either be simulated
// (delays recorded in Delivery.Latency only) or enforced in real time.
type Channel struct {
	cfg      LinkConfig
	realTime bool

	mu        sync.Mutex
	receivers []*Receiver // in attach order
	closed    bool
	sent      uint64
}

// Option configures a Channel.
type Option func(*Channel)

// WithRealTime makes Broadcast sleep for the simulated serialization and
// propagation delays instead of merely reporting them. Experiments that only
// need loss statistics leave this off to run at full speed.
func WithRealTime() Option {
	return func(c *Channel) { c.realTime = true }
}

// NewChannel returns a channel with the given link configuration.
func NewChannel(cfg LinkConfig, opts ...Option) *Channel {
	c := &Channel{cfg: cfg}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Attach adds a receiver with its own loss model and its own explicit RNG
// (losses at different receivers are independent, which is the property block
// erasure codes exploit for multicast). The RNG must be provided by the
// caller — never drawn from the global math/rand source — so experiments and
// adaptation tests are reproducible under -race; the receiver takes ownership
// and serializes access to it. bufferSize bounds the receiver's delivery
// queue (packets beyond it are dropped as if the station's NIC overflowed).
func (c *Channel) Attach(name string, model LossModel, rng *rand.Rand, bufferSize int) (*Receiver, error) {
	if bufferSize <= 0 {
		bufferSize = 1024
	}
	if rng == nil {
		return nil, fmt.Errorf("wireless: attach %q: an explicit *rand.Rand is required", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.indexOf(name) >= 0 {
		return nil, fmt.Errorf("%w: %q", ErrReceiverExists, name)
	}
	r := &Receiver{
		name:   name,
		model:  model,
		rng:    rng,
		buffer: packet.NewBuffer(bufferSize),
	}
	c.receivers = append(c.receivers, r)
	return r, nil
}

// indexOf returns the position of the receiver called name, or -1. Caller
// holds c.mu.
func (c *Channel) indexOf(name string) int {
	for i, r := range c.receivers {
		if r.name == name {
			return i
		}
	}
	return -1
}

// Detach removes a receiver and closes its buffer.
func (c *Channel) Detach(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.indexOf(name); i >= 0 {
		c.receivers[i].buffer.Close()
		c.receivers = append(c.receivers[:i], c.receivers[i+1:]...)
	}
}

// Receivers returns the attached receivers in attach order.
func (c *Channel) Receivers() []*Receiver {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Receiver(nil), c.receivers...)
}

// Sent returns the number of packets broadcast so far.
func (c *Channel) Sent() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// Broadcast transmits p to every attached receiver and returns the per
// receiver outcomes, in attach order. In real-time mode it sleeps for the serialization plus
// propagation delay once per broadcast (the medium is shared).
func (c *Channel) Broadcast(p *packet.Packet) ([]Delivery, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrChannelClosed
	}
	c.sent++
	receivers := append([]*Receiver(nil), c.receivers...)
	c.mu.Unlock()

	serialization := c.cfg.SerializationDelay(packet.HeaderSize + len(p.Payload))
	baseLatency := serialization + c.cfg.PropagationDelay
	if c.realTime {
		time.Sleep(baseLatency)
	}

	deliveries := make([]Delivery, 0, len(receivers))
	for _, r := range receivers {
		r.mu.Lock()
		lost := r.model.Lost(r.rng)
		var jitter time.Duration
		if c.cfg.MaxJitter > 0 {
			jitter = time.Duration(r.rng.Int63n(int64(c.cfg.MaxJitter)))
		}
		if lost {
			r.dropped++
		} else {
			r.rx++
		}
		r.mu.Unlock()

		d := Delivery{Packet: p, Lost: lost, Latency: baseLatency + jitter}
		if !lost {
			if err := r.buffer.TryPut(p.Clone()); err != nil {
				// A full or closed buffer is an overflow drop at the station.
				d.Lost = true
				r.mu.Lock()
				r.rx--
				r.dropped++
				r.mu.Unlock()
			}
		}
		deliveries = append(deliveries, d)
	}
	return deliveries, nil
}

// Close closes the channel and every receiver buffer.
func (c *Channel) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, r := range c.receivers {
		r.buffer.Close()
	}
}
