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
	if _, err := NewEncoderFilter("", fec.Params{K: 5, N: 2}, 1, nil); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

func TestEncoderFilterEmitsParity(t *testing.T) {
	enc, err := NewEncoderFilter("", fec.Params{K: 4, N: 6}, 1, nil)
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
	enc, _ := NewEncoderFilter("", fec.Params{K: 4, N: 6}, 1, nil)
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
	enc, _ := NewEncoderFilter("", fec.Params{K: 2, N: 3}, 1, nil)
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
	enc, _ := NewEncoderFilter("", fec.Params{K: 4, N: 6}, 1, nil)
	dec := NewDecoderFilter("", nil, nil)
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
	enc, _ := NewEncoderFilter("", fec.Params{K: 4, N: 6}, 1, nil)
	trace := metrics.NewTraceRecorder()
	dec := NewDecoderFilter("", trace, nil)
	drop := filter.NewFrame("drop-one-per-group", func(b *packet.Buf, emit func(*packet.Buf)) error {
		if _, index, _, n := packet.FrameBlock(b.B); n > 0 && index == 1 {
			b.Release() // drop data packet 1 of every group
			return nil
		}
		emit(b)
		return nil
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
	dec := NewDecoderFilter("", nil, nil)
	payloads := makePayloads(10, 8)
	got := pumpPackets(t, []filter.Filter{dec}, payloads)
	if len(got) != len(payloads) {
		t.Fatalf("got %d, want %d", len(got), len(payloads))
	}
}
