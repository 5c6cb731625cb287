package wireless

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrReceiverExists is returned when attaching a receiver under a name that is
// already in use.
var ErrReceiverExists = errors.New("wireless: receiver already attached")

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

// Delivery describes what happened to one frame at one receiver.
type Delivery struct {
	Lost    bool
	Latency time.Duration
}

// Receiver is one station attached to the channel: its loss model, its RNG
// and its counts. The caller of Broadcast hands each frame on to the stations
// that did not lose it.
type Receiver struct {
	name    string
	model   LossModel
	rng     *rand.Rand
	mu      sync.Mutex
	rx      uint64
	dropped uint64
}

// Channel is a simulated broadcast wireless medium. The access point
// multicasts every frame to all attached receivers; each receiver applies
// its own independent loss model, matching the paper's observation that a
// single parity packet can repair different losses at different stations.
//
// The channel only draws the outcomes: time is simulated (delays are
// reported in Delivery.Latency), and delivering a frame to the stations that
// kept it is the caller's business. It is safe for concurrent use.
type Channel struct {
	cfg LinkConfig

	mu        sync.Mutex
	receivers []*Receiver // in attach order
	sent      uint64
}

// NewChannel returns a channel with the given link configuration.
func NewChannel(cfg LinkConfig) *Channel {
	return &Channel{cfg: cfg}
}

// Attach adds a receiver with its own loss model and its own explicit RNG
// (losses at different receivers are independent, which is the property block
// erasure codes exploit for multicast). The RNG must be provided by the
// caller — never drawn from the global math/rand source — so experiments and
// adaptation tests are reproducible under -race; the receiver takes ownership
// and serializes access to it.
func (c *Channel) Attach(name string, model LossModel, rng *rand.Rand) (*Receiver, error) {
	if rng == nil {
		return nil, fmt.Errorf("wireless: attach %q: an explicit *rand.Rand is required", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.receivers {
		if r.name == name {
			return nil, fmt.Errorf("%w: %q", ErrReceiverExists, name)
		}
	}
	r := &Receiver{name: name, model: model, rng: rng}
	c.receivers = append(c.receivers, r)
	return r, nil
}

// Sent returns the number of frames broadcast so far.
func (c *Channel) Sent() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// Broadcast transmits one frame of frameBytes bytes to every attached
// receiver and returns the per-receiver outcomes, in attach order. Each
// receiver draws its loss and then its jitter from its own RNG, whether or
// not the frame was lost, so one station's stream of draws never depends on
// another's outcomes.
func (c *Channel) Broadcast(frameBytes int) []Delivery {
	c.mu.Lock()
	c.sent++
	receivers := c.receivers // Attach only appends: the prefix stays put
	c.mu.Unlock()

	baseLatency := c.cfg.SerializationDelay(frameBytes) + c.cfg.PropagationDelay
	deliveries := make([]Delivery, len(receivers))
	for i, r := range receivers {
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
		deliveries[i] = Delivery{Lost: lost, Latency: baseLatency + jitter}
	}
	return deliveries
}
