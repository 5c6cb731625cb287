package experiment

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"rapidware/internal/arq"
	"rapidware/internal/audio"
	"rapidware/internal/fec"
	"rapidware/internal/fecproxy"
	"rapidware/internal/packet"
	"rapidware/internal/wireless"
)

// RepairComparisonConfig parameterizes experiment E7: proactive FEC versus
// NACK-based retransmission (ARQ) versus no repair, over the same simulated
// wireless multicast channel. The paper argues for parity-based repair of
// multicast because a single parity packet fixes independent losses at
// different receivers; this experiment quantifies that argument against the
// obvious baseline.
type RepairComparisonConfig struct {
	// AudioSeconds is the workload length.
	AudioSeconds float64
	// DistanceMetres positions every receiver.
	DistanceMetres float64
	// MeanBurst is the channel's mean loss burst length.
	MeanBurst float64
	// Receivers is the number of wireless stations.
	Receivers int
	// FEC is the block code for the FEC arm.
	FEC fec.Params
	// MaxNACKRounds bounds ARQ repair (late audio is useless, so small).
	MaxNACKRounds int
	// PacketInterval is the audio duration per packet.
	PacketInterval time.Duration
	// Seed drives the loss processes.
	Seed int64
}

// DefaultRepairComparisonConfig compares the schemes at the paper's 25 m
// operating point and at a degraded 38 m point.
func DefaultRepairComparisonConfig() RepairComparisonConfig {
	return RepairComparisonConfig{
		AudioSeconds:   20,
		DistanceMetres: 25,
		MeanBurst:      1.2,
		Receivers:      3,
		FEC:            fec.Params{K: 4, N: 6},
		MaxNACKRounds:  2,
		PacketInterval: 20 * time.Millisecond,
		Seed:           31,
	}
}

// RepairPoint is one scheme's outcome.
type RepairPoint struct {
	// Scheme names the repair strategy ("none", "fec(6,4)", "arq-2").
	Scheme string
	// DeliveredRate is the mean fraction of audio packets usable across
	// receivers.
	DeliveredRate float64
	// WorstReceiver is the minimum across receivers.
	WorstReceiver float64
	// Overhead is total transmissions divided by data packets.
	Overhead float64
	// RepairDelay is the mean extra delay a repaired packet experiences:
	// for FEC, the remainder of its group; for ARQ, NACK round trips.
	RepairDelay time.Duration
}

// RepairComparisonResult reports experiment E7.
type RepairComparisonResult struct {
	Config RepairComparisonConfig
	Points []RepairPoint
}

// RunRepairComparison reproduces experiment E7.
func RunRepairComparison(cfg RepairComparisonConfig) (*RepairComparisonResult, error) {
	if cfg.AudioSeconds <= 0 {
		cfg.AudioSeconds = 10
	}
	if cfg.Receivers <= 0 {
		cfg.Receivers = 3
	}
	if cfg.PacketInterval <= 0 {
		cfg.PacketInterval = 20 * time.Millisecond
	}
	if cfg.MaxNACKRounds <= 0 {
		cfg.MaxNACKRounds = 2
	}
	format := audio.PaperFormat()
	pcm, err := audio.GenerateSpeechLike(format, time.Duration(cfg.AudioSeconds*float64(time.Second)), cfg.Seed)
	if err != nil {
		return nil, err
	}
	result := &RepairComparisonResult{Config: cfg}

	// --- Arm 1 and 2: no repair, and FEC, reuse the audio proxy pipeline. ---
	for _, arm := range []struct {
		scheme string
		params fec.Params
	}{
		{"none", fec.Params{K: 1, N: 1}},
		{fmt.Sprintf("fec%s", cfg.FEC), cfg.FEC},
	} {
		receivers := make([]fecproxy.ReceiverConfig, cfg.Receivers)
		for i := range receivers {
			receivers[i] = fecproxy.ReceiverConfig{
				Name:           fmt.Sprintf("rx-%d", i),
				DistanceMetres: cfg.DistanceMetres,
				MeanBurst:      cfg.MeanBurst,
			}
		}
		res, err := fecproxy.RunAudioProxy(fecproxy.AudioProxyConfig{
			Format:         format,
			FEC:            arm.params,
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
		var repairDelay time.Duration
		if arm.params.N > arm.params.K {
			// A repaired packet waits, on average, for half the remainder of
			// its group plus the parity packets to arrive.
			repairDelay = time.Duration(arm.params.K/2+arm.params.Parity()) * cfg.PacketInterval
		}
		result.Points = append(result.Points, RepairPoint{
			Scheme:        arm.scheme,
			DeliveredRate: sum / float64(len(res.Receivers)),
			WorstReceiver: worst,
			Overhead:      res.Overhead,
			RepairDelay:   repairDelay,
		})
	}

	// --- Arm 3: NACK-based ARQ over the same channel model. -----------------
	pktizer, err := audio.NewPacketizer(format, cfg.PacketInterval)
	if err != nil {
		return nil, err
	}
	payloads := pktizer.Split(pcm)

	channel := wireless.NewChannel(wireless.WaveLAN2Mbps())
	defer channel.Close()
	type arqReceiver struct {
		wireless *wireless.Receiver
		proto    *arq.Receiver
	}
	receivers := make([]*arqReceiver, cfg.Receivers)
	for i := range receivers {
		wr, err := channel.Attach(fmt.Sprintf("arq-rx-%d", i),
			wireless.NewDistanceLoss(cfg.DistanceMetres, cfg.MeanBurst),
			rand.New(rand.NewSource(cfg.Seed+int64(i)+1)), len(payloads)*4+16)
		if err != nil {
			return nil, err
		}
		receivers[i] = &arqReceiver{wireless: wr, proto: arq.NewReceiver(cfg.MaxNACKRounds)}
	}
	round := 0
	sender, err := arq.NewSender(len(payloads), func(p *packet.Packet) error {
		deliveries, berr := channel.Broadcast(p)
		if berr != nil {
			return berr
		}
		for i, d := range deliveries {
			if !d.Lost {
				receivers[i].proto.Deliver(d.Packet, round)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Original transmissions.
	for _, payload := range payloads {
		if _, err := sender.Send(payload); err != nil {
			return nil, err
		}
	}
	for _, r := range receivers {
		r.proto.ExpectUpTo(uint64(len(payloads)))
	}
	// Repair rounds: the union of all receivers' NACKs is retransmitted (a
	// single multicast retransmission can serve several receivers, the best
	// case for ARQ), in sequence order, so every run draws the receivers'
	// losses in the same order.
	for round = 1; round <= cfg.MaxNACKRounds; round++ {
		var want []uint64
		for _, r := range receivers {
			want = append(want, r.proto.Missing()...)
		}
		if len(want) == 0 {
			break
		}
		slices.Sort(want)
		for _, seq := range slices.Compact(want) {
			if err := sender.Retransmit(seq); err != nil {
				return nil, err
			}
		}
	}
	var sum, worst, repairRoundsTotal float64
	var repaired int
	worst = 1
	for _, r := range receivers {
		rate := r.proto.DeliveredRate()
		sum += rate
		if rate < worst {
			worst = rate
		}
		_, recovered, _, meanRounds := r.proto.Stats()
		repaired += recovered
		repairRoundsTotal += meanRounds * float64(recovered)
	}
	sent, retx := sender.Stats()
	meanRounds := 0.0
	if repaired > 0 {
		meanRounds = repairRoundsTotal / float64(repaired)
	}
	// One NACK round trip costs at least the group's packet interval for the
	// request plus the retransmission's serialization; model it as two packet
	// intervals per round, a generous lower bound for a real WLAN.
	repairDelay := time.Duration(meanRounds * float64(2*cfg.PacketInterval))
	result.Points = append(result.Points, RepairPoint{
		Scheme:        fmt.Sprintf("arq-%d", cfg.MaxNACKRounds),
		DeliveredRate: sum / float64(len(receivers)),
		WorstReceiver: worst,
		Overhead:      float64(sent+retx) / float64(len(payloads)),
		RepairDelay:   repairDelay,
	})
	return result, nil
}

// Format renders the E7 table.
func (r *RepairComparisonResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E7 — repair scheme comparison at %.0f m, %d receivers\n",
		r.Config.DistanceMetres, r.Config.Receivers)
	fmt.Fprintf(&b, "%-12s %-12s %-12s %-10s %-14s\n", "scheme", "%delivered", "%worst-rx", "overhead", "repair-delay")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12s %-12.2f %-12.2f %-10.2f %-14s\n",
			p.Scheme, p.DeliveredRate*100, p.WorstReceiver*100, p.Overhead, p.RepairDelay)
	}
	return b.String()
}
