// Package layers is the benchmark's traced per-layer replay: it pushes a
// workload's seeded datagram stream through each layer's public functions
// inside the harness process, one span around every batch of calls, and
// reports each layer's time per unit at the workload's own sizes. The proxy
// is not involved; these are the costs its layers have when nothing else is
// in the way, which is what the residual metric subtracts from measured CPU.
//
// It is a separate package from the end-to-end driver so that the driver
// depends only on the proxy's outside surfaces; only this package calls into
// stream, filter, endpoint, compose, fec, gf256, arq and adapt.
package layers

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"rapidware/bench/gen"
	"rapidware/bench/span"
	"rapidware/internal/adapt"
	"rapidware/internal/arq"
	"rapidware/internal/compose"
	"rapidware/internal/endpoint"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/gf256"
	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
	"rapidware/internal/stream"
)

// Metric is one layer timing: the median over rounds and the round count.
type Metric struct {
	Value float64
	N     uint64
}

// Result is what a replay produced.
type Result struct {
	Metrics map[string]Metric
	Spans   []span.Span
}

// batch is the number of units one span covers, the proxy's own I/O batch.
const batch = netbatch.BatchSize

// replay carries one workload's inputs through the layer timings.
type replay struct {
	w      gen.Workload
	seed   int64
	tr     *span.Tracer
	res    *Result
	dgrams [][]byte // batch datagrams of the workload's size, one per session
	frames [][]byte // the same without their session ID
	req    int
}

// Replay times every layer on w's seeded stream.
func Replay(w gen.Workload, seed int64) (*Result, error) {
	r := &replay{
		w: w, seed: seed,
		tr:  span.New(time.Now(), 1<<16),
		res: &Result{Metrics: map[string]Metric{}},
	}
	for i := 0; i < batch; i++ {
		d, err := gen.Datagram(seed, gen.FirstSession+uint32(i), w.Payload)
		if err != nil {
			return nil, err
		}
		gen.Stamp(d, uint32(i), 0)
		r.dgrams = append(r.dgrams, d)
		r.frames = append(r.frames, d[packet.SessionIDSize:])
	}
	for _, step := range []func() error{
		r.netbatch, r.packet, r.stream, r.chains, r.fec, r.gf256, r.compose, r.arq, r.adapt,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	r.res.Spans = r.tr.Spans()
	return r.res, nil
}

// settled returns the median of vals after dropping the first tenth (caches
// and pools still filling) and the number of values that leaves.
func settled(vals []float64) Metric {
	vals = vals[len(vals)/10:]
	slices.Sort(vals)
	return Metric{Value: vals[len(vals)/2], N: uint64(len(vals))}
}

// span times one call of fn under a span and returns its length in ns.
func (r *replay) span(layer, name string, fn func() error) (float64, error) {
	sp := r.tr.Begin(name, layer, -1, r.req)
	err := fn()
	d := r.tr.End(sp)
	r.req++
	if err != nil {
		return 0, fmt.Errorf("%s.%s: %w", layer, name, err)
	}
	return float64(d), nil
}

// record runs fn rounds times, one span around each call covering units
// units of work, and stores the settled time per unit under metric.
func (r *replay) record(metric, layer, name string, rounds, units int, fn func() error) error {
	per := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		d, err := r.span(layer, name, fn)
		if err != nil {
			return err
		}
		per = append(per, d/float64(units))
	}
	r.res.Metrics[metric] = settled(per)
	return nil
}

func (r *replay) netbatch() error {
	a, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer b.Close()
	tx, rx := netbatch.New(a, netbatch.Options{}), netbatch.New(b, netbatch.Options{})
	dst := b.LocalAddr().(*net.UDPAddr).AddrPort()
	wm := make([]netbatch.Msg, batch)
	rm := make([]netbatch.Msg, batch)
	bufs := make([][]byte, batch)
	for i := range wm {
		wm[i] = netbatch.Msg{Buf: r.dgrams[i], Addr: dst}
		bufs[i] = make([]byte, packet.MaxDatagram)
	}
	var writes, reads []float64
	for round := 0; round < 400; round++ {
		for sent := 0; sent < batch; {
			var n int
			d, err := r.span("netbatch", "WriteBatch", func() (err error) {
				n, err = tx.WriteBatch(wm[sent:])
				return err
			})
			if err != nil {
				return err
			}
			writes = append(writes, d/float64(n))
			sent += n
		}
		for got := 0; got < batch; {
			for i := range rm {
				rm[i].Buf = bufs[i]
			}
			if err := b.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
				return err
			}
			var n int
			d, err := r.span("netbatch", "ReadBatch", func() (err error) {
				n, err = rx.ReadBatch(rm)
				return err
			})
			if err != nil {
				return err
			}
			reads = append(reads, d/float64(n))
			got += n
		}
	}
	r.res.Metrics["netbatch.write_ns_per_pkt"] = settled(writes)
	r.res.Metrics["netbatch.read_ns_per_pkt"] = settled(reads)
	return nil
}

// perUs as a record's unit count turns its ns per unit into us per call.
const perUs = 1000

// cheap is how many times the sub-100ns layers repeat a batch inside one
// span, so the span's own two clock reads stay under a percent of it.
const cheap = 16

func (r *replay) packet() error {
	var sink int
	err := r.record("packet.parse_ns_per_pkt", "packet", "SplitSessionID+ValidateFrame+FrameKind", 300, batch*cheap, func() error {
		for rep := 0; rep < cheap; rep++ {
			for _, d := range r.dgrams {
				id, frame, err := packet.SplitSessionID(d)
				if err != nil {
					return err
				}
				if err := packet.ValidateFrame(frame); err != nil {
					return err
				}
				sink += int(id) + int(packet.FrameKind(frame))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	_ = sink
	payload := r.frames[0][packet.HeaderSize:]
	buf := make([]byte, 0, len(r.dgrams[0]))
	pkt := packet.Packet{StreamID: 1, Kind: packet.KindData, Payload: payload}
	err = r.record("packet.append_ns_per_pkt", "packet", "AppendDatagram", 300, batch*cheap, func() error {
		for i := 0; i < batch*cheap; i++ {
			pkt.Seq = uint64(i)
			if _, err := packet.AppendDatagram(buf[:0], gen.FirstSession, &pkt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	size := len(r.dgrams[0])
	return r.record("packet.pool_ns_per_pkt", "packet", "GetBuf+Release", 300, batch*cheap, func() error {
		for i := 0; i < batch*cheap; i++ {
			packet.GetBuf(size).Release()
		}
		return nil
	})
}

// stream times one detachable-stream hop: this goroutine writes a batch of
// frames, a reader goroutine takes them off the other end.
func (r *replay) stream() error {
	rd, wr := stream.Pipe()
	frame := r.frames[0]
	done := make(chan error, 1) // one message per batch, consumed before the next batch
	go func() {
		buf := make([]byte, len(frame))
		for {
			for i := 0; i < batch; i++ {
				if _, err := io.ReadFull(rd, buf); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}
	}()
	err := r.record("stream.hop_ns_per_frame", "stream", "Pipe write->read", 300, batch, func() error {
		for i := 0; i < batch; i++ {
			if _, err := wr.Write(frame); err != nil {
				return err
			}
		}
		return <-done
	})
	wr.Close()
	if end := <-done; err == nil && !errors.Is(end, io.EOF) && !errors.Is(end, io.ErrUnexpectedEOF) {
		err = fmt.Errorf("stream reader ended with %v", end)
	}
	return err
}

// chainRig is a session-shaped chain outside the engine: a UDPSource fed from
// a channel, the plan's stages, and a UDPSink that counts data frames.
type chainRig struct {
	chain *filter.Chain
	live  *compose.Live
	in    chan *packet.Buf
	stop  chan struct{}
	out   atomic.Uint64 // data frames that reached the sink
	woke  chan struct{} // the sink pokes it after every data frame
}

func newChainRig(spec string) (*chainRig, error) {
	plan, err := compose.Parse(spec, compose.ModeChain)
	if err != nil {
		return nil, err
	}
	// in holds a batch: push never blocks on a chain that is keeping up.
	c := &chainRig{in: make(chan *packet.Buf, batch), stop: make(chan struct{}), woke: make(chan struct{}, 1)}
	c.chain = filter.NewChain("replay")
	source := endpoint.NewUDPSource("replay-in", func() (*packet.Buf, error) {
		select {
		case b := <-c.in:
			return b, nil
		case <-c.stop:
			return nil, io.EOF
		}
	})
	sink := endpoint.NewUDPSink("replay-out", packet.SessionIDSize, func(b *packet.Buf) error {
		if packet.FrameKind(b.B[packet.SessionIDSize:]) == packet.KindData {
			c.out.Add(1)
			select {
			case c.woke <- struct{}{}:
			default:
			}
		}
		b.Release()
		return nil
	})
	if err := c.chain.Append(source); err != nil {
		return nil, err
	}
	if err := c.chain.Append(sink); err != nil {
		return nil, err
	}
	if c.live, err = compose.Attach(c.chain, compose.Default(), compose.Env{StreamID: 1}, compose.ModeChain, plan); err != nil {
		return nil, err
	}
	return c, c.chain.Start()
}

func (c *chainRig) close() {
	close(c.stop)
	_ = c.chain.Stop() // the replay is over; a stage's shutdown error changes nothing
}

// push feeds frames through the chain and returns once as many data frames
// have come out as went in. The chains replayed here keep data one-to-one
// (FEC encoders only add parity, and a batch fills their groups exactly).
func (c *chainRig) push(frames [][]byte) error {
	want := c.out.Load() + uint64(len(frames))
	for _, f := range frames {
		b := packet.GetBuf(len(f))
		copy(b.B, f)
		c.in <- b
	}
	timeout := time.After(5 * time.Second)
	for c.out.Load() < want {
		select {
		case <-c.woke:
		case <-timeout:
			return fmt.Errorf("chain delivered %d of %d frames", c.out.Load()-(want-uint64(len(frames))), len(frames))
		}
	}
	return nil
}

// chains times the empty session chain (source straight into sink) and the
// workload's own chain; a stage's cost is their difference over the stages.
func (r *replay) chains() error {
	empty, err := newChainRig("")
	if err != nil {
		return err
	}
	defer empty.close()
	err = r.record("endpoint.pipe_ns_per_frame", "endpoint", "UDPSource->UDPSink", 300, batch, func() error {
		return empty.push(r.frames)
	})
	if err != nil || r.w.Chain == "" {
		r.res.Metrics["filter.stage_ns_per_frame"] = Metric{}
		return err
	}
	full, err := newChainRig(r.w.Chain)
	if err != nil {
		return err
	}
	defer full.close()
	err = r.record("filter.stage_ns_per_frame", "filter", "Chain "+r.w.Chain, 300, batch, func() error {
		return full.push(r.frames)
	})
	if err != nil {
		return err
	}
	m := r.res.Metrics["filter.stage_ns_per_frame"]
	m.Value = (m.Value - r.res.Metrics["endpoint.pipe_ns_per_frame"].Value) / float64(full.live.Plan().Len())
	r.res.Metrics["filter.stage_ns_per_frame"] = m
	return nil
}

// codes returns the workload's uplink and proxy codes, or the paper's pair
// for workloads without FEC (their numbers are context, not on any path).
func (r *replay) codes() (uplink, proxy fec.Params, loss gen.Channel) {
	uplink, proxy, loss = r.w.Code, r.w.ProxyCode, r.w.Loss
	if uplink.N == 0 {
		uplink = fec.Params{N: 12, K: 8}
	}
	if proxy.N == 0 {
		proxy = fec.Params{N: 6, K: 4}
	}
	if loss.Mean == 0 {
		loss = gen.Channel{Mean: 0.05, Burst: 2}
	}
	return uplink, proxy, loss
}

func (r *replay) fec() error {
	uplink, proxy, loss := r.codes()
	coder, err := fec.CoderFor(proxy)
	if err != nil {
		return err
	}
	enc := fec.NewFrameEncoder(coder, 1)
	defer enc.Discard()
	emit := func([]byte) error { return nil }
	err = r.record("fec.encode_ns_per_group", "fec", "FrameEncoder.Add+Encode "+proxy.String(), 200, batch, func() error {
		for g := 0; g < batch; g++ {
			for i := 0; i < proxy.K; i++ {
				f := r.frames[(g*proxy.K+i)%batch]
				b := packet.GetBuf(len(f))
				copy(b.B, f)
				if _, err := enc.Add(b); err != nil {
					return err
				}
			}
			if err := enc.Encode(emit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Decode exactly what the seed's channel leaves of each group, skipping
	// the groups it destroys (the proxy's decoder never decodes those).
	pool, err := gen.GroupPool(r.seed, gen.FirstSession, r.w.Payload, batch, uplink)
	if err != nil {
		return err
	}
	decoder, err := fec.CoderFor(uplink)
	if err != nil {
		return err
	}
	eraser := gen.NewEraser(r.seed, gen.FirstSession, loss)
	shareSize := r.w.Payload + 2
	var groups []map[int][]byte
	for len(groups) < batch {
		fate := eraser.NextFate(uplink)
		g := pool[len(groups)]
		have := map[int][]byte{}
		for i, sent := range fate.Sent {
			payload := g.Shares[i][gen.PayloadOff:]
			switch {
			case !sent:
			case i < uplink.K:
				have[i] = gen.DataShare(payload, shareSize)
			default:
				have[i] = payload
			}
		}
		if len(have) >= uplink.K {
			groups = append(groups, have)
		}
	}
	return r.record("fec.decode_ns_per_group", "fec", "Coder.Decode "+uplink.String(), 200, batch, func() error {
		for _, have := range groups {
			if _, err := decoder.Decode(have); err != nil {
				return err
			}
		}
		return nil
	})
}

// gf256 times the field kernel on a fixed 1400-byte slice whatever the
// workload: it doubles as the host-speed reference for comparing machines.
func (r *replay) gf256() error {
	const size = 1400
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	err := r.record("gf256.addmul_mb_s", "gf256", "AddMulSlice 1400B", 300, 1, func() error {
		for i := 0; i < batch*cheap; i++ {
			gf256.AddMulSlice(byte(i)|1, src, dst)
		}
		return nil
	})
	m := r.res.Metrics["gf256.addmul_mb_s"]
	m.Value = float64(size*batch*cheap) / m.Value * 1e3 // bytes per ns -> MB/s
	r.res.Metrics["gf256.addmul_mb_s"] = m
	return err
}

// plans returns the specs the recompose timing cycles through: the
// workload's own schedule, or its chain with and without one more stage.
func (r *replay) plans() []string {
	if len(r.w.Plans) > 0 {
		return r.w.Plans
	}
	return []string{r.w.Chain, strings.TrimPrefix(r.w.Chain+",null", ",")}
}

func (r *replay) compose() error {
	// What opening a session costs outside the engine's table: parse and
	// validate the spec, build the stages between two endpoints, start them.
	var rigs []*chainRig
	err := r.record("compose.build_us", "compose", "Parse+Validate+Build "+r.w.Chain, 100, perUs, func() error {
		c, err := newChainRig(r.w.Chain)
		rigs = append(rigs, c)
		return err
	})
	for _, c := range rigs {
		if c != nil {
			c.close()
		}
	}
	if err != nil {
		return err
	}

	var plans []compose.Plan
	for _, spec := range r.plans() {
		p, err := compose.Parse(spec, compose.ModeChain)
		if err != nil {
			return err
		}
		plans = append(plans, p)
	}
	c, err := newChainRig(r.plans()[0])
	if err != nil {
		return err
	}
	defer c.close()
	next := 0
	recompose := func() error {
		next = (next + 1) % len(plans)
		return c.live.Recompose(plans[next])
	}
	if err := r.record("compose.recompose_us", "compose", "Live.Recompose idle", 100, perUs, recompose); err != nil {
		return err
	}
	// The same splices with frames in the chain.
	stop := make(chan struct{})
	fed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				fed <- nil
				return
			default:
			}
			if err := c.push(r.frames); err != nil {
				fed <- err
				return
			}
		}
	}()
	err = r.record("compose.recompose_busy_us", "compose", "Live.Recompose under traffic", 100, perUs, recompose)
	close(stop)
	if ferr := <-fed; err == nil {
		err = ferr
	}
	return err
}

func (r *replay) arq() error {
	c, err := newChainRig(compose.KindARQ)
	if err != nil {
		return err
	}
	defer c.close()
	// Fill the history with frames whose sequence numbers are 0..batch-1.
	if err := c.push(r.frames); err != nil {
		return err
	}
	history, ok := c.live.Instance(compose.KindARQ).(*arq.SenderFilter)
	if !ok {
		return errors.New("arq stage is not an arq.SenderFilter")
	}
	return r.record("arq.lookup_ns", "arq", "SenderFilter.Lookup", 300, batch*cheap, func() error {
		for rep := 0; rep < cheap; rep++ {
			for seq := uint64(0); seq < batch; seq++ {
				if history.Lookup(seq) == nil {
					return fmt.Errorf("seq %d missing from the history", seq)
				}
			}
		}
		return nil
	})
}

func (r *replay) adapt() error {
	policy := adapt.DefaultPolicy()
	var sink int
	err := r.record("adapt.decide_ns", "adapt", "Policy.Decide", 300, batch*cheap, func() error {
		for i := 0; i < batch*cheap; i++ {
			m, p := policy.Decide(float64(i%batch)/100, uint32(i%200))
			sink += int(m) + p.N
		}
		return nil
	})
	_ = sink
	return err
}
