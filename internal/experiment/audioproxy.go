package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rapidware/internal/audio"
	"rapidware/internal/fec"
	"rapidware/internal/fecproxy"
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

// station is one receiver's half of the pipeline: its FEC decoder chain and
// what it collects.
type station struct {
	chain   *filter.FrameChain
	decoder *fecproxy.DecoderFilter
	trace   *metrics.TraceRecorder
	reasm   *audio.Reassembler
}

// RunAudioProxy executes the Figure 6 pipeline end to end:
//
//	audio source -> packetizer -> [FEC encoder filter] -> wireless channel
//	  -> per-receiver: [FEC decoder filter] -> audio reassembler
//
// Every stage runs to completion on the caller's goroutine. The sender is a
// filter.FrameChain over the FEC encoder whose sink broadcasts each frame on
// the channel and hands a copy to the decoder chain of every station that did
// not lose it; that chain's sink feeds the station's reassembler. Closing
// the chains at the end flushes a partial FEC group as plain data frames.
// When cfg.FEC.N == cfg.FEC.K the run degenerates to the "no FEC" baseline
// used for the raw-receipt series of Figure 7.
func RunAudioProxy(cfg AudioProxyConfig, pcm []byte) (*AudioProxyResult, error) {
	cfg = withAudioProxyDefaults(cfg)
	pktizer, err := audio.NewPacketizer(cfg.Format, cfg.PacketInterval)
	if err != nil {
		return nil, err
	}
	payloads := pktizer.Split(pcm)
	if len(payloads) == 0 {
		return nil, fmt.Errorf("experiment: no audio to send")
	}

	// --- Receiver side ------------------------------------------------------
	channel := wireless.NewChannel(cfg.Link)
	stations := make([]*station, len(cfg.Receivers))
	var rxErr error // the first stage error of any station's chain
	for i, rc := range cfg.Receivers {
		model := rc.Model
		if model == nil {
			model = wireless.NewDistanceLoss(rc.DistanceMetres, rc.MeanBurst)
		}
		if _, err := channel.Attach(rc.Name, model, rand.New(rand.NewSource(cfg.Seed+int64(i)+1))); err != nil {
			return nil, err
		}
		reasm, err := audio.NewReassembler(cfg.Format, pktizer.PayloadSize())
		if err != nil {
			return nil, err
		}
		st := &station{trace: metrics.NewTraceRecorder(), reasm: reasm}
		// Every data packet ordinal that is transmitted counts toward the
		// rates, even if this receiver never sees it.
		for seq := range payloads {
			st.trace.MarkSent(uint64(seq))
		}
		st.decoder = fecproxy.NewDecoderFilter("fec-decoder", st.trace, nil)
		st.chain = filter.NewFrameChain(func(b *packet.Buf) {
			st.reasm.Add(int(fecproxy.FrameTraceKey(b.B)), b.B[packet.HeaderSize:])
			b.Release()
		})
		if err := st.chain.SetInterior([]filter.Filter{st.decoder}); err != nil {
			return nil, err
		}
		stations[i] = st
	}

	// --- Sender side --------------------------------------------------------
	sender := filter.NewFrameChain(func(b *packet.Buf) {
		for i, d := range channel.Broadcast(len(b.B)) {
			if d.Lost {
				continue
			}
			c := packet.GetFrameBuf(len(b.B))
			copy(c.B, b.B)
			if err := stations[i].chain.Process(c); err != nil && rxErr == nil {
				rxErr = fmt.Errorf("experiment: receiver %q: %w", cfg.Receivers[i].Name, err)
			}
		}
		b.Release()
	})
	if cfg.FEC.N > cfg.FEC.K {
		encoder, err := fecproxy.NewEncoderFilter("fec-encoder", cfg.FEC, 1, nil)
		if err != nil {
			return nil, err
		}
		if err := sender.SetInterior([]filter.Filter{encoder}); err != nil {
			return nil, err
		}
	}
	for seq, payload := range payloads {
		b, err := dataFrame(uint64(seq), payload)
		if err != nil {
			return nil, err
		}
		if err := sender.Process(b); err != nil {
			return nil, err
		}
	}
	err = sender.Close() // the end of the stream: a partial group goes out
	for _, st := range stations {
		err = errors.Join(err, st.chain.Close())
	}
	if err = errors.Join(err, rxErr); err != nil {
		return nil, err
	}

	result := &AudioProxyResult{
		Config:    cfg,
		DataSent:  len(payloads),
		TotalSent: channel.Sent(),
		Overhead:  float64(channel.Sent()) / float64(len(payloads)),
	}
	for i, st := range stations {
		received, reconstructed, _, _ := st.decoder.Stats()
		st.reasm.MarkExpected(len(payloads) - 1)
		result.Receivers = append(result.Receivers, ReceiverResult{
			Name:          cfg.Receivers[i].Name,
			Sent:          len(payloads),
			Received:      int(received),
			Reconstructed: int(reconstructed),
			Trace:         st.trace,
			Audio:         st.reasm,
		})
	}
	return result, nil
}

// dataFrame returns payload as data frame seq in a pooled frame buffer.
func dataFrame(seq uint64, payload []byte) (*packet.Buf, error) {
	b := packet.GetFrameBuf(packet.HeaderSize + len(payload))
	if err := packet.PutFrameHeader(b.B, &packet.Packet{Seq: seq, Kind: packet.KindData}, len(payload)); err != nil {
		b.Release()
		return nil, err
	}
	copy(b.B[packet.HeaderSize:], payload)
	return b, nil
}

func withAudioProxyDefaults(cfg AudioProxyConfig) AudioProxyConfig {
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
