package experiment

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/endpoint"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
	"rapidware/internal/raplet"
	"rapidware/internal/wireless"
)

// LiveInsertionConfig parameterizes experiment E3: filters inserted, removed
// and reordered on a live stream while its integrity is verified end to end,
// and the latency of each splice is measured.
type LiveInsertionConfig struct {
	// StreamBytes is the total volume pushed through the proxy.
	StreamBytes int
	// Splices is the number of insert/remove cycles performed while the
	// stream is flowing.
	Splices int
	// ChunkSize is the producer's write size (one "frame").
	ChunkSize int
}

// DefaultLiveInsertionConfig returns a configuration that keeps the stream
// alive long enough for tens of live splices.
func DefaultLiveInsertionConfig() LiveInsertionConfig {
	return LiveInsertionConfig{StreamBytes: 4 << 20, Splices: 20, ChunkSize: 1024}
}

// LiveInsertionResult reports experiment E3.
type LiveInsertionResult struct {
	Config         LiveInsertionConfig
	BytesDelivered int
	Intact         bool
	Insertions     int
	Removals       int
	InsertLatency  *metrics.Histogram
	RemoveLatency  *metrics.Histogram
}

// RunLiveInsertion reproduces experiment E3 on a stream chain managed by a
// compose.Live: every splice is a plan rewrite applied by Live.Recompose.
func RunLiveInsertion(cfg LiveInsertionConfig) (*LiveInsertionResult, error) {
	if cfg.StreamBytes <= 0 {
		cfg.StreamBytes = 1 << 20
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1024
	}
	if cfg.Splices <= 0 {
		cfg.Splices = 10
	}
	payload := make([]byte, cfg.StreamBytes)
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}

	// The paced payload is a raw byte stream: it enters the chain one buffer
	// per read, which the spliced counting stage accepts as it does frames.
	var sink bytes.Buffer // written by the chain's pump, read once it is done
	chain := filter.NewChain("live-insertion")
	for _, s := range []filter.Stage{
		endpoint.NewReader("in", &pacedReader{payload: payload, chunk: cfg.ChunkSize}),
		endpoint.NewWriter("out", &sink),
	} {
		if err := chain.Append(s); err != nil {
			return nil, err
		}
	}
	live, err := compose.Attach(chain, compose.Default(), compose.Env{StreamID: 1}, compose.ModeChain, compose.Plan{})
	if err != nil {
		return nil, err
	}
	if err := chain.Start(); err != nil {
		return nil, err
	}

	result := &LiveInsertionResult{
		Config:        cfg,
		InsertLatency: &metrics.Histogram{},
		RemoveLatency: &metrics.Histogram{},
	}
	spliced := compose.Plan{Stages: []compose.Stage{{Kind: "counting"}}}
	for i := 0; i < cfg.Splices; i++ {
		start := time.Now()
		if err := live.Recompose(spliced); err != nil {
			return nil, fmt.Errorf("experiment: insert %d: %w", i, err)
		}
		result.InsertLatency.Observe(time.Since(start))
		result.Insertions++

		start = time.Now()
		if err := live.Recompose(compose.Plan{}); err != nil {
			return nil, fmt.Errorf("experiment: remove %d: %w", i, err)
		}
		result.RemoveLatency.Observe(time.Since(start))
		result.Removals++
	}

	// Wait for the stream to finish, then verify integrity.
	if err := chain.Wait(); err != nil {
		return nil, err
	}
	got := sink.Bytes()
	result.BytesDelivered = len(got)
	result.Intact = bytes.Equal(got, payload)
	return result, nil
}

// Format renders the E3 report.
func (r *LiveInsertionResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E3 — live filter insertion/removal on a running stream\n")
	fmt.Fprintf(&b, "stream bytes          %d\n", r.Config.StreamBytes)
	fmt.Fprintf(&b, "bytes delivered       %d\n", r.BytesDelivered)
	fmt.Fprintf(&b, "stream intact         %v\n", r.Intact)
	fmt.Fprintf(&b, "insertions/removals   %d/%d\n", r.Insertions, r.Removals)
	fmt.Fprintf(&b, "insert latency        %s\n", r.InsertLatency)
	fmt.Fprintf(&b, "remove latency        %s\n", r.RemoveLatency)
	return b.String()
}

// AdaptiveWalkConfig parameterizes the adaptive half of experiment E2: a user
// walks away from the access point while an observer/responder pair decides
// when to enable FEC on the live stream (the paper's §3 scenario).
type AdaptiveWalkConfig struct {
	// Path is the sequence of (distance, packets) legs of the walk.
	Path []WalkLeg
	// Threshold is the loss rate above which FEC is enabled.
	Threshold float64
	// Window is the loss observer's sliding window in packets.
	Window int
	// FEC is the code the responder inserts.
	FEC fec.Params
	// Seed drives the loss process.
	Seed int64
}

// WalkLeg is one segment of the simulated walk.
type WalkLeg struct {
	DistanceMetres float64
	Packets        int
}

// DefaultAdaptiveWalkConfig reproduces the office → conference-room walk.
func DefaultAdaptiveWalkConfig() AdaptiveWalkConfig {
	return AdaptiveWalkConfig{
		Path: []WalkLeg{
			{DistanceMetres: 5, Packets: 600},
			{DistanceMetres: 25, Packets: 600},
			{DistanceMetres: 38, Packets: 900},
			{DistanceMetres: 44, Packets: 900},
			{DistanceMetres: 25, Packets: 600},
			{DistanceMetres: 5, Packets: 900},
		},
		Threshold: 0.05,
		Window:    200,
		FEC:       fec.Params{K: 4, N: 6},
		Seed:      23,
	}
}

// AdaptiveWalkPoint is one leg's outcome.
type AdaptiveWalkPoint struct {
	Leg       WalkLeg
	LossRate  float64
	FECActive bool
}

// AdaptiveWalkResult reports the adaptive experiment.
type AdaptiveWalkResult struct {
	Config     AdaptiveWalkConfig
	Points     []AdaptiveWalkPoint
	Insertions uint64
	Removals   uint64
}

// RunAdaptiveWalk reproduces the demand-driven FEC scenario: the proxy starts
// as a null proxy; as the simulated user walks away and loss climbs past the
// threshold, the responder inserts the FEC encoder into the live chain's
// plan, and removes it again when the user walks back.
func RunAdaptiveWalk(cfg AdaptiveWalkConfig) (*AdaptiveWalkResult, error) {
	if len(cfg.Path) == 0 {
		cfg = DefaultAdaptiveWalkConfig()
	}
	if cfg.Window <= 0 {
		cfg.Window = 200
	}

	// The responder splices the encoder into the live plan; the walk carries
	// no traffic, so the plan's executor is a bare FrameChain.
	live, err := compose.Attach(filter.NewFrameChain((*packet.Buf).Release), compose.Default(), compose.Env{StreamID: 1}, compose.ModeChain, compose.Plan{})
	if err != nil {
		return nil, err
	}

	bus := raplet.NewBus()
	encoder := fmt.Sprintf("fec-encode=%d/%d", cfg.FEC.N, cfg.FEC.K)
	responder, err := raplet.NewThresholdResponder("demand-fec", live, encoder, 0, cfg.Threshold, true)
	if err != nil {
		return nil, err
	}
	bus.Subscribe(raplet.EventLossRate, responder)
	observer := raplet.NewLossRateObserver("link-observer", bus, cfg.Window, cfg.Threshold, cfg.Threshold/2)

	result := &AdaptiveWalkResult{Config: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, leg := range cfg.Path {
		model := wireless.NewDistanceLoss(leg.DistanceMetres, 1.2)
		lost := 0
		for i := 0; i < leg.Packets; i++ {
			dropped := model.Lost(rng)
			if dropped {
				lost++
			}
			observer.ObservePacket(!dropped)
		}
		result.Points = append(result.Points, AdaptiveWalkPoint{
			Leg:       leg,
			LossRate:  float64(lost) / float64(leg.Packets),
			FECActive: responder.Active(),
		})
	}
	result.Insertions, result.Removals = responder.Stats()
	if errs := bus.Errors(); len(errs) > 0 {
		return nil, errs[0]
	}
	return result, nil
}

// Format renders the adaptive walk table.
func (r *AdaptiveWalkResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2b — demand-driven FEC while roaming (threshold %.0f%% loss)\n", r.Config.Threshold*100)
	fmt.Fprintf(&b, "%-10s %-10s %-12s %-10s\n", "metres", "packets", "leg-loss", "FEC-active")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.0f %-10d %-12.3f %-10v\n", p.Leg.DistanceMetres, p.Leg.Packets, p.LossRate, p.FECActive)
	}
	fmt.Fprintf(&b, "FEC filter insertions=%d removals=%d\n", r.Insertions, r.Removals)
	return b.String()
}

// --- helpers -----------------------------------------------------------------

// pacedReader emits a payload in fixed-size chunks with a tiny pause between
// them so the stream stays live while filters are spliced.
type pacedReader struct {
	payload []byte
	chunk   int
	off     int
}

func (p *pacedReader) Read(buf []byte) (int, error) {
	if p.off >= len(p.payload) {
		return 0, io.EOF
	}
	n := p.chunk
	if n > len(buf) {
		n = len(buf)
	}
	if p.off+n > len(p.payload) {
		n = len(p.payload) - p.off
	}
	copy(buf, p.payload[p.off:p.off+n])
	p.off += n
	time.Sleep(20 * time.Microsecond)
	return n, nil
}
