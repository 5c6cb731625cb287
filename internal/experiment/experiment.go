// Package experiment contains the reproducible experiment harness: one runner
// per table/figure of the paper, plus the supplementary runs (distance and
// group-size sweeps, repair comparison, live insertion, the adaptive walk),
// each returning structured results and a formatted table matching what the
// paper plots. The cmd/fecbench binary and the top-level benchmarks are thin
// wrappers around these runners.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"rapidware/internal/audio"
	"rapidware/internal/fec"
	"rapidware/internal/metrics"
	"rapidware/internal/wireless"
)

// Figure7Config parameterizes the reproduction of the paper's Figure 7: an
// audio stream FEC(6,4)-protected and multicast to a laptop 25 m from the
// access point on a 2 Mbps WLAN.
type Figure7Config struct {
	// AudioSeconds is the length of the synthesized audio stream. The paper's
	// trace covers ~5,400 packets ≈ 108 s at 20 ms per packet.
	AudioSeconds float64
	// DistanceMetres positions the receiver (paper: 25 m).
	DistanceMetres float64
	// MeanBurst is the mean loss burst length of the simulated channel.
	MeanBurst float64
	// FEC selects the block code (paper: (6,4)).
	FEC fec.Params
	// WindowSize is the number of packets per plotted point.
	WindowSize int
	// Seed makes the run reproducible.
	Seed int64
}

// DefaultFigure7Config returns the paper's operating point.
func DefaultFigure7Config() Figure7Config {
	return Figure7Config{
		AudioSeconds:   108,
		DistanceMetres: 25,
		MeanBurst:      1.2,
		FEC:            fec.Params{K: 4, N: 6},
		WindowSize:     432, // matches the paper's x-axis granularity
		Seed:           2001,
	}
}

// Figure7Result holds the reproduced series and headline rates.
type Figure7Result struct {
	Config             Figure7Config
	DataSent           int
	ReceivedRate       float64 // paper: 98.54 %
	ReconstructedRate  float64 // paper: 99.98 %
	Series             []metrics.TracePoint
	Overhead           float64
	PaperReceived      float64
	PaperReconstructed float64
}

// RunFigure7 reproduces Figure 7.
func RunFigure7(cfg Figure7Config) (*Figure7Result, error) {
	if cfg.AudioSeconds <= 0 {
		cfg.AudioSeconds = 10
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 432
	}
	format := audio.PaperFormat()
	pcm, err := audio.GenerateSpeechLike(format, time.Duration(cfg.AudioSeconds*float64(time.Second)), cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, err := RunAudioProxy(AudioProxyConfig{
		Format: format,
		FEC:    cfg.FEC,
		Seed:   cfg.Seed,
		Receivers: []ReceiverConfig{{
			Name:           fmt.Sprintf("laptop-%.0fm", cfg.DistanceMetres),
			DistanceMetres: cfg.DistanceMetres,
			MeanBurst:      cfg.MeanBurst,
		}},
	}, pcm)
	if err != nil {
		return nil, err
	}
	rx := res.Receivers[0]
	received, reconstructed := rx.Trace.Rates()
	return &Figure7Result{
		Config:             cfg,
		DataSent:           res.DataSent,
		ReceivedRate:       received,
		ReconstructedRate:  reconstructed,
		Series:             rx.Trace.Series(cfg.WindowSize),
		Overhead:           res.Overhead,
		PaperReceived:      0.9854,
		PaperReconstructed: 0.9998,
	}, nil
}

// Format renders the result in the paper's two-series form.
func (r *Figure7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — Packet stats, FEC %s, %0.0f m from AP, %d audio packets\n",
		r.Config.FEC, r.Config.DistanceMetres, r.DataSent)
	fmt.Fprintf(&b, "%-10s %-14s %-16s\n", "seq", "%received", "%reconstructed")
	for _, p := range r.Series {
		fmt.Fprintf(&b, "%-10d %-14.2f %-16.2f\n", p.Seq, p.ReceivedRate*100, p.ReconstructedRate*100)
	}
	fmt.Fprintf(&b, "\nmeasured: received=%.2f%% reconstructed=%.2f%% overhead=%.2fx\n",
		r.ReceivedRate*100, r.ReconstructedRate*100, r.Overhead)
	fmt.Fprintf(&b, "paper:    received=%.2f%% reconstructed=%.2f%%\n",
		r.PaperReceived*100, r.PaperReconstructed*100)
	return b.String()
}

// DistancePoint is one row of the distance sweep (experiment E2).
type DistancePoint struct {
	DistanceMetres   float64
	ModelLossRate    float64
	RawReceivedRate  float64
	FECDeliveredRate float64
}

// DistanceSweepConfig parameterizes experiment E2: loss versus distance and
// what FEC recovers at each point, quantifying the paper's claim that loss
// "changes dramatically over a distance of several meters".
type DistanceSweepConfig struct {
	Distances    []float64
	AudioSeconds float64
	FEC          fec.Params
	MeanBurst    float64
	Seed         int64
}

// DefaultDistanceSweepConfig covers the walk from the office to the
// conference room in the paper's scenario.
func DefaultDistanceSweepConfig() DistanceSweepConfig {
	return DistanceSweepConfig{
		Distances:    []float64{5, 15, 25, 30, 35, 40, 45},
		AudioSeconds: 20,
		FEC:          fec.Params{K: 4, N: 6},
		MeanBurst:    1.2,
		Seed:         7,
	}
}

// RunDistanceSweep reproduces experiment E2.
func RunDistanceSweep(cfg DistanceSweepConfig) ([]DistancePoint, error) {
	if cfg.AudioSeconds <= 0 {
		cfg.AudioSeconds = 10
	}
	format := audio.PaperFormat()
	pcm, err := audio.GenerateSpeechLike(format, time.Duration(cfg.AudioSeconds*float64(time.Second)), cfg.Seed)
	if err != nil {
		return nil, err
	}
	var out []DistancePoint
	for i, d := range cfg.Distances {
		res, err := RunAudioProxy(AudioProxyConfig{
			Format: format,
			FEC:    cfg.FEC,
			Seed:   cfg.Seed + int64(i)*101,
			Receivers: []ReceiverConfig{{
				Name:           fmt.Sprintf("rx-%.0fm", d),
				DistanceMetres: d,
				MeanBurst:      cfg.MeanBurst,
			}},
		}, pcm)
		if err != nil {
			return nil, err
		}
		rx := res.Receivers[0]
		out = append(out, DistancePoint{
			DistanceMetres:   d,
			ModelLossRate:    wireless.LossAtDistance(d),
			RawReceivedRate:  rx.ReceivedRate(),
			FECDeliveredRate: rx.ReconstructedRate(),
		})
	}
	return out, nil
}

// FormatDistanceSweep renders the E2 table.
func FormatDistanceSweep(points []DistancePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2 — loss vs distance and FEC recovery\n")
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-14s\n", "metres", "model-loss", "%received", "%with-FEC")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10.0f %-12.4f %-12.2f %-14.2f\n",
			p.DistanceMetres, p.ModelLossRate, p.RawReceivedRate*100, p.FECDeliveredRate*100)
	}
	return b.String()
}

// GroupSizePoint is one row of the (n,k) sweep (experiment E4).
type GroupSizePoint struct {
	Params        fec.Params
	Overhead      float64
	DeliveredRate float64
	WorstReceiver float64
	GroupLatency  time.Duration // time spanned by one FEC group of audio
}

// GroupSizeSweepConfig parameterizes experiment E4.
type GroupSizeSweepConfig struct {
	Codes          []fec.Params
	AudioSeconds   float64
	DistanceMetres float64
	MeanBurst      float64
	Receivers      int
	PacketInterval time.Duration
	Seed           int64
}

// DefaultGroupSizeSweepConfig compares the paper's (6,4) against nearby codes
// at the 25 m operating point with three receivers (as in the testbed).
func DefaultGroupSizeSweepConfig() GroupSizeSweepConfig {
	return GroupSizeSweepConfig{
		Codes: []fec.Params{
			{K: 1, N: 1}, // no FEC baseline
			{K: 4, N: 5},
			{K: 4, N: 6}, // the paper's configuration
			{K: 4, N: 8},
			{K: 8, N: 10},
			{K: 8, N: 12},
		},
		AudioSeconds:   20,
		DistanceMetres: 25,
		MeanBurst:      1.2,
		Receivers:      3,
		PacketInterval: 20 * time.Millisecond,
		Seed:           11,
	}
}

// RunGroupSizeSweep reproduces experiment E4.
func RunGroupSizeSweep(cfg GroupSizeSweepConfig) ([]GroupSizePoint, error) {
	if cfg.AudioSeconds <= 0 {
		cfg.AudioSeconds = 10
	}
	if cfg.Receivers <= 0 {
		cfg.Receivers = 3
	}
	if cfg.PacketInterval <= 0 {
		cfg.PacketInterval = 20 * time.Millisecond
	}
	format := audio.PaperFormat()
	pcm, err := audio.GenerateSpeechLike(format, time.Duration(cfg.AudioSeconds*float64(time.Second)), cfg.Seed)
	if err != nil {
		return nil, err
	}
	var out []GroupSizePoint
	for _, code := range cfg.Codes {
		receivers := make([]ReceiverConfig, cfg.Receivers)
		for i := range receivers {
			receivers[i] = ReceiverConfig{
				Name:           fmt.Sprintf("laptop-%d", i+1),
				DistanceMetres: cfg.DistanceMetres,
				MeanBurst:      cfg.MeanBurst,
			}
		}
		res, err := RunAudioProxy(AudioProxyConfig{
			Format:         format,
			FEC:            code,
			PacketInterval: cfg.PacketInterval,
			Seed:           cfg.Seed,
			Receivers:      receivers,
		}, pcm)
		if err != nil {
			return nil, err
		}
		var sum, worst float64
		worst = 1
		for _, rx := range res.Receivers {
			rate := rx.ReconstructedRate()
			sum += rate
			if rate < worst {
				worst = rate
			}
		}
		out = append(out, GroupSizePoint{
			Params:        code,
			Overhead:      res.Overhead,
			DeliveredRate: sum / float64(len(res.Receivers)),
			WorstReceiver: worst,
			GroupLatency:  time.Duration(code.K) * cfg.PacketInterval,
		})
	}
	return out, nil
}

// FormatGroupSizeSweep renders the E4 table.
func FormatGroupSizeSweep(points []GroupSizePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4 — FEC group size: delivery vs overhead vs group latency (jitter proxy)\n")
	fmt.Fprintf(&b, "%-10s %-10s %-12s %-12s %-12s\n", "(n,k)", "overhead", "%delivered", "%worst-rx", "group-span")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-10.2f %-12.2f %-12.2f %-12s\n",
			p.Params, p.Overhead, p.DeliveredRate*100, p.WorstReceiver*100, p.GroupLatency)
	}
	return b.String()
}
