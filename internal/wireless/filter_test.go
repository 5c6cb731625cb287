package wireless

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"rapidware/internal/endpoint"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

func TestLossFilterDropsAccordingToModel(t *testing.T) {
	const total = 5000
	i := 0
	src := endpoint.NewPacketSource("gen", func() (*packet.Packet, error) {
		if i >= total {
			return nil, io.EOF
		}
		p := &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}}
		i++
		return p, nil
	})
	var mu sync.Mutex
	received := 0
	sink := endpoint.NewPacketSink("rx", func(*packet.Packet) error {
		mu.Lock()
		received++
		mu.Unlock()
		return nil
	})
	lossy := NewLossFilter("wlan", Bernoulli{P: 0.2}, LinkConfig{}, false, rand.New(rand.NewSource(7)))

	c := filter.NewChain("lossy-path")
	c.Append(src)
	c.Append(lossy)
	c.Append(sink)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	dropped, passed := lossy.Stats()
	if dropped+passed != total {
		t.Fatalf("filter saw %d packets, want %d", dropped+passed, total)
	}
	if received != int(passed) {
		t.Fatalf("sink received %d, filter passed %d", received, passed)
	}
	rate := lossy.LossRate()
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("observed loss rate %v, want ~0.2", rate)
	}
}

func TestLossFilterSetModel(t *testing.T) {
	lf := NewLossFilter("", Bernoulli{P: 0}, LinkConfig{}, false, rand.New(rand.NewSource(1)))
	if lf.Name() == "" {
		t.Fatal("default name empty")
	}
	if lf.LossRate() != 0 {
		t.Fatal("initial loss rate should be 0")
	}
	lf.SetModel(Bernoulli{P: 1})
	// The model is consulted inside the pipeline; here we only verify the
	// setter does not race with Stats.
	if d, p := lf.Stats(); d != 0 || p != 0 {
		t.Fatalf("stats = %d/%d before any traffic", d, p)
	}
}
