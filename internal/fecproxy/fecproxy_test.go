package fecproxy

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"rapidware/internal/endpoint"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
	"rapidware/internal/wireless"
)

// pumpPackets runs a chain of [source] + middle + [sink] where the source
// emits the given payloads as data packets and the sink collects everything.
func pumpPackets(t *testing.T, middle []filter.Filter, payloads [][]byte) []*packet.Packet {
	t.Helper()
	i := 0
	src := endpoint.NewPacketSource("src", func() (*packet.Packet, error) {
		if i >= len(payloads) {
			return nil, io.EOF
		}
		p := &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: payloads[i]}
		i++
		return p, nil
	})
	var mu sync.Mutex
	var got []*packet.Packet
	sink := endpoint.NewPacketSink("sink", func(p *packet.Packet) error {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
		return nil
	})
	chain := filter.NewChain("test")
	chain.Append(src)
	for _, f := range middle {
		chain.Append(f)
	}
	chain.Append(sink)
	if err := chain.Start(); err != nil {
		t.Fatal(err)
	}
	if err := chain.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return got
}

func makePayloads(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%0*d", size, i))
	}
	return out
}

func TestNewEncoderFilterRejectsBadParams(t *testing.T) {
	if _, err := NewEncoderFilter("", fec.Params{K: 5, N: 2}, 1); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

func TestEncoderFilterEmitsParity(t *testing.T) {
	enc, err := NewEncoderFilter("", fec.Params{K: 4, N: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Name() == "" {
		t.Fatal("default name empty")
	}
	payloads := makePayloads(8, 32) // exactly two FEC groups
	got := pumpPackets(t, []filter.Filter{enc}, payloads)
	if len(got) != 12 { // 2 groups × (4 data + 2 parity)
		t.Fatalf("got %d packets, want 12", len(got))
	}
	var data, parity int
	for _, p := range got {
		switch p.Kind {
		case packet.KindData:
			data++
		case packet.KindParity:
			parity++
		}
	}
	if data != 8 || parity != 4 {
		t.Fatalf("data=%d parity=%d, want 8/4", data, parity)
	}
	dataIn, dataOut, par := enc.Stats()
	if dataIn != 8 || dataOut != 8 || par != 4 {
		t.Fatalf("Stats = %d/%d/%d", dataIn, dataOut, par)
	}
	if got := enc.Overhead(); got != 1.5 {
		t.Fatalf("Overhead = %v, want 1.5", got)
	}
	if enc.Params() != (fec.Params{K: 4, N: 6}) {
		t.Fatalf("Params = %v", enc.Params())
	}
}

func TestEncoderFilterFlushesPartialGroupAtEOF(t *testing.T) {
	enc, _ := NewEncoderFilter("", fec.Params{K: 4, N: 6}, 1)
	payloads := makePayloads(6, 16) // one full group + 2 leftover
	got := pumpPackets(t, []filter.Filter{enc}, payloads)
	// 6 data (4 from the full group, 2 flushed) + 2 parity.
	if len(got) != 8 {
		t.Fatalf("got %d packets, want 8", len(got))
	}
	var data int
	for _, p := range got {
		if p.Kind == packet.KindData {
			data++
		}
	}
	if data != 6 {
		t.Fatalf("data packets = %d, want 6 (no audio lost at EOF)", data)
	}
}

func TestEncoderFilterPassesNonDataThrough(t *testing.T) {
	enc, _ := NewEncoderFilter("", fec.Params{K: 2, N: 3}, 1)
	i := 0
	src := endpoint.NewPacketSource("src", func() (*packet.Packet, error) {
		if i >= 1 {
			return nil, io.EOF
		}
		i++
		return &packet.Packet{Kind: packet.KindControl, Payload: []byte("marker")}, nil
	})
	var got []*packet.Packet
	var mu sync.Mutex
	sink := endpoint.NewPacketSink("sink", func(p *packet.Packet) error {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
		return nil
	})
	chain := filter.NewChain("ctrl")
	chain.Append(src)
	chain.Append(enc)
	chain.Append(sink)
	chain.Start()
	if err := chain.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != packet.KindControl {
		t.Fatalf("control packet not passed through: %v", got)
	}
}

func TestEncodeDecodeChainNoLoss(t *testing.T) {
	enc, _ := NewEncoderFilter("", fec.Params{K: 4, N: 6}, 1)
	dec := NewDecoderFilter("", nil)
	payloads := makePayloads(40, 20)
	got := pumpPackets(t, []filter.Filter{enc, dec}, payloads)
	if len(got) != len(payloads) {
		t.Fatalf("got %d packets, want %d", len(got), len(payloads))
	}
	for i, p := range got {
		if string(p.Payload) != string(payloads[i]) {
			t.Fatalf("packet %d corrupted or reordered", i)
		}
		if p.Kind != packet.KindData {
			t.Fatalf("non-data packet leaked downstream: %v", p)
		}
	}
	rx, rc, fwd, _ := dec.Stats()
	if rx != 40 || rc != 0 || fwd != 40 {
		t.Fatalf("decoder stats = %d/%d/%d", rx, rc, fwd)
	}
}

func TestEncodeLossyDecodeRecovers(t *testing.T) {
	// Insert a deterministic lossy hop between encoder and decoder that drops
	// one packet per FEC group; the decoder must reconstruct everything.
	enc, _ := NewEncoderFilter("", fec.Params{K: 4, N: 6}, 1)
	trace := metrics.NewTraceRecorder()
	dec := NewDecoderFilter("", trace)
	drop := filter.NewPacketFunc("drop-one-per-group", func(p *packet.Packet) ([]*packet.Packet, error) {
		if p.IsFEC() && p.Index == 1 {
			return nil, nil // drop data packet 1 of every group
		}
		return []*packet.Packet{p}, nil
	}, nil)

	payloads := makePayloads(40, 24)
	got := pumpPackets(t, []filter.Filter{enc, drop, dec}, payloads)
	if len(got) != len(payloads) {
		t.Fatalf("delivered %d packets, want %d", len(got), len(payloads))
	}
	seen := map[string]int{}
	for _, p := range got {
		seen[string(p.Payload)]++
	}
	for _, pl := range payloads {
		if seen[string(pl)] != 1 {
			t.Fatalf("payload %q delivered %d times", pl, seen[string(pl)])
		}
	}
	_, rc, _, _ := dec.Stats()
	if rc != 10 { // one reconstruction per group of 4, 40/4 groups
		t.Fatalf("reconstructed = %d, want 10", rc)
	}
	rxRate, usableRate := trace.Rates()
	if usableRate != 1 {
		t.Fatalf("usable rate = %v, want 1", usableRate)
	}
	if rxRate >= 1 {
		t.Fatalf("received rate = %v, want < 1 with losses", rxRate)
	}
}

func TestDecoderWithoutFECPassesThrough(t *testing.T) {
	dec := NewDecoderFilter("", nil)
	payloads := makePayloads(10, 8)
	got := pumpPackets(t, []filter.Filter{dec}, payloads)
	if len(got) != len(payloads) {
		t.Fatalf("got %d, want %d", len(got), len(payloads))
	}
}

func TestRunAudioProxyDefaults(t *testing.T) {
	pcm := make([]byte, 16000*2) // 2 seconds of paper-format audio
	for i := range pcm {
		pcm[i] = byte(i)
	}
	res, err := RunAudioProxy(AudioProxyConfig{Seed: 1}, pcm)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent != 100 { // 2s / 20ms
		t.Fatalf("DataSent = %d, want 100", res.DataSent)
	}
	if res.Overhead < 1.4 || res.Overhead > 1.6 {
		t.Fatalf("Overhead = %v, want ~1.5 for (6,4)", res.Overhead)
	}
	if len(res.Receivers) != 1 {
		t.Fatalf("receivers = %d", len(res.Receivers))
	}
	r := res.Receivers[0]
	if r.Sent != 100 {
		t.Fatalf("receiver Sent = %d", r.Sent)
	}
	if r.ReconstructedRate() < r.ReceivedRate() {
		t.Fatal("reconstruction made things worse")
	}
	if r.Audio.Completeness() != r.ReconstructedRate() {
		t.Logf("note: audio completeness %v vs reconstructed rate %v", r.Audio.Completeness(), r.ReconstructedRate())
	}
}

func TestRunAudioProxyNoFECBaseline(t *testing.T) {
	pcm := make([]byte, 16000)
	cfg := AudioProxyConfig{
		FEC:  fec.Params{K: 1, N: 1},
		Seed: 2,
		Receivers: []ReceiverConfig{
			{Name: "lossy", Model: wireless.Bernoulli{P: 0.2}},
		},
	}
	res, err := RunAudioProxy(cfg, pcm)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Receivers[0]
	if r.Reconstructed != 0 {
		t.Fatalf("baseline run reconstructed %d packets, want 0", r.Reconstructed)
	}
	if r.ReceivedRate() > 0.95 {
		t.Fatalf("received rate %v, want visible loss at P=0.2", r.ReceivedRate())
	}
	if res.Overhead != 1 {
		t.Fatalf("Overhead = %v, want 1 without FEC", res.Overhead)
	}
}

func TestRunAudioProxyFECBeatsBaseline(t *testing.T) {
	pcm := make([]byte, 16000*4)
	loss := 0.05
	base := AudioProxyConfig{
		FEC:       fec.Params{K: 1, N: 1},
		Seed:      3,
		Receivers: []ReceiverConfig{{Name: "rx", Model: wireless.Bernoulli{P: loss}}},
	}
	withFEC := AudioProxyConfig{
		FEC:       fec.Params{K: 4, N: 6},
		Seed:      3,
		Receivers: []ReceiverConfig{{Name: "rx", Model: wireless.Bernoulli{P: loss}}},
	}
	baseRes, err := RunAudioProxy(base, pcm)
	if err != nil {
		t.Fatal(err)
	}
	fecRes, err := RunAudioProxy(withFEC, pcm)
	if err != nil {
		t.Fatal(err)
	}
	baseRate := baseRes.Receivers[0].ReconstructedRate()
	fecRate := fecRes.Receivers[0].ReconstructedRate()
	if fecRate <= baseRate {
		t.Fatalf("FEC did not improve delivery: %v vs baseline %v", fecRate, baseRate)
	}
	if fecRate < 0.99 {
		t.Fatalf("FEC(6,4) at 5%% loss should deliver >99%%, got %v", fecRate)
	}
}

func TestRunAudioProxyMultipleReceiversIndependent(t *testing.T) {
	pcm := make([]byte, 16000*2)
	cfg := AudioProxyConfig{
		Seed: 4,
		Receivers: []ReceiverConfig{
			{Name: "near", DistanceMetres: 10, MeanBurst: 1},
			{Name: "paper", DistanceMetres: 25, MeanBurst: 1.2},
			{Name: "far", DistanceMetres: 42, MeanBurst: 2},
		},
	}
	res, err := RunAudioProxy(cfg, pcm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Receivers) != 3 {
		t.Fatalf("receivers = %d", len(res.Receivers))
	}
	byName := map[string]ReceiverResult{}
	for _, r := range res.Receivers {
		byName[r.Name] = r
	}
	if byName["far"].ReceivedRate() >= byName["near"].ReceivedRate() {
		t.Fatalf("far receiver (%v) should see more loss than near (%v)",
			byName["far"].ReceivedRate(), byName["near"].ReceivedRate())
	}
}

func TestRunAudioProxyEmptyAudio(t *testing.T) {
	if _, err := RunAudioProxy(AudioProxyConfig{}, nil); err == nil {
		t.Fatal("expected error for empty audio")
	}
}

func TestReceiverResultRatesEmpty(t *testing.T) {
	var r ReceiverResult
	if r.ReceivedRate() != 1 || r.ReconstructedRate() != 1 {
		t.Fatal("empty result should report rate 1")
	}
}
