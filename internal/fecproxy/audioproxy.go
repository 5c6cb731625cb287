package fecproxy

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rapidware/internal/audio"
	"rapidware/internal/endpoint"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
	"rapidware/internal/wireless"
)

// AudioProxyConfig describes one run of the paper's FEC audio proxy
// experiment (Figure 6 / Figure 7): an audio stream is packetized, FEC
// encoded at the proxy, multicast over a lossy wireless channel, and decoded
// at each mobile receiver.
type AudioProxyConfig struct {
	// Format is the PCM format; the zero value selects the paper's format.
	Format audio.Format
	// PacketInterval is the audio duration per packet (default 20 ms).
	PacketInterval time.Duration
	// FEC selects the (n,k) block code (default the paper's (6,4)).
	FEC fec.Params
	// Link describes the wireless medium (default 2 Mbps WaveLAN).
	Link wireless.LinkConfig
	// Receivers lists the mobile stations and their loss behaviour.
	Receivers []ReceiverConfig
	// Seed makes the run reproducible.
	Seed int64
	// RealTime paces the channel at the real link speed; experiments leave
	// this false to run faster than real time.
	RealTime bool
}

// ReceiverConfig describes one wireless receiver.
type ReceiverConfig struct {
	// Name identifies the receiver in results.
	Name string
	// DistanceMetres positions the receiver relative to the access point;
	// used when Model is nil.
	DistanceMetres float64
	// MeanBurst is the mean loss burst length for the distance-based model.
	MeanBurst float64
	// Model overrides the distance-based loss model when non-nil.
	Model wireless.LossModel
}

// ReceiverResult reports what one receiver observed.
type ReceiverResult struct {
	Name          string
	Sent          int
	Received      int
	Reconstructed int
	Trace         *metrics.TraceRecorder
	Audio         *audio.Reassembler
}

// ReceivedRate returns the fraction of audio packets received directly.
func (r ReceiverResult) ReceivedRate() float64 {
	if r.Sent == 0 {
		return 1
	}
	return float64(r.Received) / float64(r.Sent)
}

// ReconstructedRate returns the fraction of audio packets usable after FEC.
func (r ReceiverResult) ReconstructedRate() float64 {
	if r.Sent == 0 {
		return 1
	}
	return float64(r.Received+r.Reconstructed) / float64(r.Sent)
}

// AudioProxyResult aggregates a full run.
type AudioProxyResult struct {
	Config    AudioProxyConfig
	DataSent  int
	TotalSent uint64
	Overhead  float64
	Receivers []ReceiverResult
}

// RunAudioProxy executes the Figure 6 pipeline end to end:
//
//	audio source -> packetizer -> [FEC encoder filter] -> wireless channel
//	  -> per-receiver: [FEC decoder filter] -> audio reassembler
//
// The sender side runs as a filter chain (packet source, FEC encoder,
// channel broadcaster); each receiver runs its own chain fed from its channel
// buffer. When cfg.FEC.N == cfg.FEC.K the run degenerates to the "no FEC"
// baseline used for the raw-receipt series of Figure 7.
func RunAudioProxy(cfg AudioProxyConfig, pcm []byte) (*AudioProxyResult, error) {
	cfg = withDefaults(cfg)
	pktizer, err := audio.NewPacketizer(cfg.Format, cfg.PacketInterval)
	if err != nil {
		return nil, err
	}
	payloads := pktizer.Split(pcm)
	if len(payloads) == 0 {
		return nil, fmt.Errorf("fecproxy: no audio to send")
	}

	// --- Sender side -------------------------------------------------------
	channel := wireless.NewChannel(cfg.Link, channelOptions(cfg)...)
	defer channel.Close()

	type rxState struct {
		cfg      ReceiverConfig
		receiver *wireless.Receiver
		result   ReceiverResult
	}
	states := make([]*rxState, 0, len(cfg.Receivers))
	for i, rc := range cfg.Receivers {
		model := rc.Model
		if model == nil {
			model = wireless.NewDistanceLoss(rc.DistanceMetres, rc.MeanBurst)
		}
		r, err := channel.Attach(rc.Name, model, rand.New(rand.NewSource(cfg.Seed+int64(i)+1)), len(payloads)*2+16)
		if err != nil {
			return nil, err
		}
		states = append(states, &rxState{cfg: rc, receiver: r})
	}

	// The sender chain: packet source -> FEC encoder -> broadcast sink.
	idx := 0
	source := endpoint.NewPacketSource("wired-receiver", func() (*packet.Packet, error) {
		if idx >= len(payloads) {
			return nil, io.EOF
		}
		p := &packet.Packet{
			Seq:     uint64(idx),
			Kind:    packet.KindData,
			Payload: payloads[idx],
		}
		idx++
		return p, nil
	})

	stages := []filter.Stage{source}
	if cfg.FEC.N > cfg.FEC.K {
		encoder, err := NewEncoderFilter("fec-encoder", cfg.FEC, 1)
		if err != nil {
			return nil, err
		}
		stages = append(stages, encoder)
	}
	stages = append(stages, endpoint.NewPacketSink("wireless-sender", func(p *packet.Packet) error {
		_, berr := channel.Broadcast(p)
		return berr
	}))
	if err := runChain("fec-audio-proxy", stages...); err != nil {
		return nil, err
	}

	result := &AudioProxyResult{
		Config:    cfg,
		DataSent:  len(payloads),
		TotalSent: channel.Sent(),
		Overhead:  float64(channel.Sent()) / float64(len(payloads)),
	}

	// --- Receiver side ------------------------------------------------------
	for _, st := range states {
		st.receiver.Buffer().Close() // everything has been broadcast
		trace := metrics.NewTraceRecorder()
		reasm, err := audio.NewReassembler(cfg.Format, pktizer.PayloadSize())
		if err != nil {
			return nil, err
		}
		res, err := runReceiver(st.receiver, cfg, trace, reasm, len(payloads))
		if err != nil {
			return nil, fmt.Errorf("fecproxy: receiver %q: %w", st.cfg.Name, err)
		}
		res.Name = st.cfg.Name
		result.Receivers = append(result.Receivers, res)
	}
	return result, nil
}

// runReceiver drains one receiver's channel buffer through a decoder chain
// and collects its statistics.
func runReceiver(r *wireless.Receiver, cfg AudioProxyConfig, trace *metrics.TraceRecorder, reasm *audio.Reassembler, dataSent int) (ReceiverResult, error) {
	// Every data packet ordinal that was transmitted counts toward the rates,
	// even if this receiver never sees it.
	for i := 0; i < dataSent; i++ {
		trace.MarkSent(uint64(i))
	}

	source := endpoint.NewPacketSource("wireless-receiver", func() (*packet.Packet, error) {
		p, err := r.Buffer().Get()
		if err != nil {
			return nil, io.EOF
		}
		return p, nil
	})
	decoder := NewDecoderFilter("fec-decoder", trace)
	var received, reconstructed int
	sink := endpoint.NewPacketSink("wired-sender", func(p *packet.Packet) error {
		key := int(traceKey(p))
		reasm.Add(key, p.Payload)
		return nil
	})

	if err := runChain("fec-audio-receiver", source, decoder, sink); err != nil {
		return ReceiverResult{}, err
	}
	rx, rc, _, _ := decoder.Stats()
	received, reconstructed = int(rx), int(rc)

	reasm.MarkExpected(dataSent - 1)
	return ReceiverResult{
		Sent:          dataSent,
		Received:      received,
		Reconstructed: reconstructed,
		Trace:         trace,
		Audio:         reasm,
	}, nil
}

// runChain assembles stages into a chain and pumps its stream to the end.
func runChain(name string, stages ...filter.Stage) error {
	chain := filter.NewChain(name)
	for _, s := range stages {
		if err := chain.Append(s); err != nil {
			return err
		}
	}
	if err := chain.Start(); err != nil {
		return err
	}
	return chain.Wait()
}

func withDefaults(cfg AudioProxyConfig) AudioProxyConfig {
	if cfg.Format == (audio.Format{}) {
		cfg.Format = audio.PaperFormat()
	}
	if cfg.PacketInterval == 0 {
		cfg.PacketInterval = 20 * time.Millisecond
	}
	if cfg.FEC == (fec.Params{}) {
		cfg.FEC = fec.Params{K: 4, N: 6}
	}
	if cfg.Link == (wireless.LinkConfig{}) {
		cfg.Link = wireless.WaveLAN2Mbps()
	}
	if len(cfg.Receivers) == 0 {
		cfg.Receivers = []ReceiverConfig{{Name: "laptop-25m", DistanceMetres: 25, MeanBurst: 1.2}}
	}
	return cfg
}

func channelOptions(cfg AudioProxyConfig) []wireless.Option {
	if cfg.RealTime {
		return []wireless.Option{wireless.WithRealTime()}
	}
	return nil
}
