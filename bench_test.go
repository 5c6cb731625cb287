package rapidware

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/audio"
	"rapidware/internal/endpoint"
	"rapidware/internal/engine"
	"rapidware/internal/experiment"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/gf256"
	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
	"rapidware/internal/stream"
	"rapidware/internal/wireless"
)

// ---------------------------------------------------------------------------
// Figure 7 — FEC(6,4) audio trace at 25 m from the access point.
// Paper: 98.54% of packets received raw, 99.98% after reconstruction.
// ---------------------------------------------------------------------------

// BenchmarkFigure7FECAudioTrace regenerates the Figure 7 series. The
// benchmark output reports the measured received/reconstructed percentages as
// custom metrics alongside the runtime.
func BenchmarkFigure7FECAudioTrace(b *testing.B) {
	cfg := experiment.DefaultFigure7Config()
	cfg.AudioSeconds = 30 // 1,500 packets per iteration keeps iterations tractable
	var lastReceived, lastReconstructed float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(2001 + i)
		res, err := experiment.RunFigure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lastReceived = res.ReceivedRate
		lastReconstructed = res.ReconstructedRate
	}
	b.ReportMetric(lastReceived*100, "%received")
	b.ReportMetric(lastReconstructed*100, "%reconstructed")
}

// ---------------------------------------------------------------------------
// Engine — multi-session UDP relay: the steady-state per-packet path.
// ---------------------------------------------------------------------------

// BenchmarkEngineMultiSession measures the engine's steady-state relay path
// with 256 concurrent UDP sessions on one socket. Each op is one full round
// trip: client datagram -> engine demux -> session chain -> echoed datagram.
// The path is pooled end to end, so allocs/op must stay at (near) zero; the
// acceptance bound for this benchmark is <= 2 allocs/op.
func BenchmarkEngineMultiSession(b *testing.B) {
	const sessions = 256
	eng, err := engine.New(engine.Config{ListenAddr: "127.0.0.1:0", MaxSessions: sessions})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	addr := eng.LocalAddr().(*net.UDPAddr)

	payload := make([]byte, 320) // one paper-sized audio packet
	rand.New(rand.NewSource(42)).Read(payload)

	conns := make([]*net.UDPConn, sessions)
	dgrams := make([][]byte, sessions)
	recv := make([]byte, packet.MaxDatagram)
	for i := range conns {
		c, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
		id := uint32(i + 1)
		dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{
			Seq: uint64(i), StreamID: id, Kind: packet.KindData, Payload: payload,
		})
		if err != nil {
			b.Fatal(err)
		}
		dgrams[i] = dgram
		// Prime the session (and warm the pools) with one round trip.
		if _, err := c.Write(dgram); err != nil {
			b.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(recv); err != nil {
			b.Fatalf("session %d never echoed: %v", id, err)
		}
	}
	if n := eng.SessionCount(); n != sessions {
		b.Fatalf("primed %d sessions, want %d", n, sessions)
	}
	// One generous absolute deadline per socket instead of a per-op
	// SetReadDeadline keeps deadline bookkeeping out of the measured path.
	for _, c := range conns {
		c.SetReadDeadline(time.Now().Add(10 * time.Minute))
	}

	b.SetBytes(int64(len(dgrams[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := conns[i%sessions]
		if _, err := c.Write(dgrams[i%sessions]); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(recv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineShardedThroughput measures aggregate relay throughput as
// the data plane widens: GOMAXPROCS client goroutines, each with its own
// socket and session, keep a window of datagrams in flight against engines
// with 1, 4 and 8 shards. Both sides batch their syscalls — the engine
// through its shard loops, the clients through the same internal/netbatch
// package — so on the Linux fast path the benchmark measures the
// recvmmsg/sendmmsg pipeline end to end rather than the client's
// one-datagram-per-syscall ceiling. One pb.Next() is one echoed datagram;
// the headline figure of merit is ops/sec (pps).
func BenchmarkEngineShardedThroughput(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			benchWindowedEcho(b, engine.Config{Shards: shards})
		})
	}
}

// BenchmarkEngineChainDepth is the same windowed echo through one shard as
// the session chain deepens from a pure relay to eight null stages: the
// per-stage tax of the engine's executor, which the stream-mode
// BenchmarkChainDepth cannot see. null is frame-native, so every depth runs
// inline on the shard reader and a stage should cost two counter updates and
// a call — the floors are expected to be nearly flat.
func BenchmarkEngineChainDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("stages-%d", depth), func(b *testing.B) {
			chain := strings.TrimSuffix(strings.Repeat("null,", depth), ",")
			benchWindowedEcho(b, engine.Config{Shards: 1, Chain: chain})
		})
	}
}

// benchWindowedEcho drives an engine built from cfg (listen address and GSO
// filled in here) with GOMAXPROCS batched clients, one session each, a window
// of datagrams in flight per client. One pb.Next() is one echoed datagram.
func benchWindowedEcho(b *testing.B, cfg engine.Config) {
	cfg.ListenAddr, cfg.GSO = "127.0.0.1:0", netbatch.GSOAvailable
	eng, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	dst := eng.LocalAddr().(*net.UDPAddr).AddrPort()

	payload := make([]byte, 320)
	rand.New(rand.NewSource(7)).Read(payload)
	var nextID atomic.Uint32

	b.SetBytes(int64(packet.SessionIDSize + packet.HeaderSize + len(payload)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Unconnected socket: WriteBatch addresses every datagram
		// explicitly, which works identically on the mmsg fast path
		// and the portable fallback.
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		bc := netbatch.New(c, netbatch.Options{GSO: netbatch.GSOAvailable})
		id := nextID.Add(1)
		dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{
			Seq: uint64(id), StreamID: id, Kind: packet.KindData, Payload: payload,
		})
		if err != nil {
			b.Error(err)
			return
		}
		wmsgs := make([]netbatch.Msg, netbatch.BatchSize)
		for i := range wmsgs {
			wmsgs[i] = netbatch.Msg{Buf: dgram, Addr: dst}
		}
		rbufs := make([][]byte, netbatch.BatchSize)
		for i := range rbufs {
			rbufs[i] = make([]byte, packet.MaxDatagram)
		}
		rmsgs := make([]netbatch.Msg, netbatch.BatchSize)
		readBatch := func(deadline time.Duration) (int, error) {
			for i := range rmsgs {
				rmsgs[i].Buf = rbufs[i]
			}
			c.SetReadDeadline(time.Now().Add(deadline))
			return bc.ReadBatch(rmsgs)
		}
		// Prime the session (bounded retries: the first datagram can
		// race the session open under heavy parallelism).
		primed := false
		for attempt := 0; attempt < 10 && !primed; attempt++ {
			if _, err := bc.WriteBatch(wmsgs[:1]); err != nil {
				b.Error(err)
				return
			}
			if _, err := readBatch(time.Second); err == nil {
				primed = true
			}
		}
		if !primed {
			b.Error("session never echoed during priming")
			return
		}
		// Keep a window of datagrams in flight, topped up and drained
		// a batch at a time. A timed-out window is re-primed and the
		// iteration still counts (UDP loss under overload must not
		// wedge the benchmark); echoes beyond the current iteration
		// are banked against future pb.Next() calls.
		const window = 4 * netbatch.BatchSize
		inflight, banked := 0, 0
		for pb.Next() {
			if banked > 0 {
				banked--
				continue
			}
			for inflight < window {
				k := min(len(wmsgs), window-inflight)
				n, err := bc.WriteBatch(wmsgs[:k])
				if err != nil {
					b.Error(err)
					return
				}
				inflight += n
			}
			n, err := readBatch(500 * time.Millisecond)
			if err != nil {
				inflight = 0
				continue
			}
			inflight -= n
			banked = n - 1
		}
		// Drain stragglers so the next sub-benchmark starts clean.
		for inflight > 0 {
			n, err := readBatch(50 * time.Millisecond)
			if err != nil {
				break
			}
			inflight -= n
		}
	})
}

// BenchmarkEngineFanoutBranches measures the delivery-tree fan-out path: one
// session's trunk output delivered to cohorts of receivers whose branch tails
// canonicalize alike. The homogeneous cases (receivers-N) keep every receiver
// clean, so the whole group rides the bypass lane — trunk output goes straight
// into the shard writer batch, one payload stamped with N destination
// addresses, no per-receiver chains or goroutines. The mixed cases alternate
// lossy (10% reported loss) and clean receivers, splitting delivery into
// exactly two cohorts: the clean half on the bypass lane, the lossy half
// behind one shared adaptive (8,4) encoder chain. Each op is one client
// datagram relayed through the tree and read back from a clean receiver; the
// remaining receivers are drained concurrently.
func BenchmarkEngineFanoutBranches(b *testing.B) {
	for _, tc := range []struct {
		receivers int
		mixed     bool
	}{{1, false}, {8, false}, {64, false}, {8, true}, {64, true}} {
		name := fmt.Sprintf("receivers-%d", tc.receivers)
		if tc.mixed {
			name += "-mixed"
		}
		b.Run(name, func(b *testing.B) {
			receivers := tc.receivers
			rxs := make([]*net.UDPConn, receivers)
			fanout := make([]string, receivers)
			for i := range rxs {
				rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					b.Fatal(err)
				}
				defer rx.Close()
				rxs[i] = rx
				fanout[i] = rx.LocalAddr().String()
			}
			eng, err := engine.New(engine.Config{ListenAddr: "127.0.0.1:0", Adapt: true, Fanout: fanout, GSO: netbatch.GSOAvailable})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			engAddr := eng.LocalAddr().(*net.UDPAddr)

			c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			cw := netbatch.New(c, netbatch.Options{})

			payload := make([]byte, 320)
			rand.New(rand.NewSource(9)).Read(payload)
			dgram, err := packet.AppendDatagram(nil, 1, &packet.Packet{
				Seq: 1, StreamID: 1, Kind: packet.KindData, Payload: payload,
			})
			if err != nil {
				b.Fatal(err)
			}
			wmsgs := make([]netbatch.Msg, netbatch.BatchSize)
			for i := range wmsgs {
				wmsgs[i] = netbatch.Msg{Buf: dgram, Addr: engAddr.AddrPort()}
			}

			// Prime the session: every receiver sees the first packet.
			if _, err := cw.WriteBatch(wmsgs[:1]); err != nil {
				b.Fatal(err)
			}
			recv := make([]byte, packet.MaxDatagram)
			for _, rx := range rxs {
				rx.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := rx.Read(recv); err != nil {
					b.Fatalf("receiver never got the primed packet: %v", err)
				}
			}

			if tc.mixed {
				// Heterogeneous channels: odd receivers report 10% loss
				// (their cohort splices in the (8,4) encoder), even
				// receivers are clean and stay on the bypass lane.
				lossyBranches := 0
				for i, rx := range rxs {
					rep := packet.Report{Received: 100, Window: 100}
					if i%2 == 1 {
						rep = packet.Report{Received: 90, Lost: 10, Window: 100}
						lossyBranches++
					}
					rdgram, err := packet.AppendReportDatagram(nil, 1, 0, 0, rep)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := rx.WriteToUDP(rdgram, engAddr); err != nil {
						b.Fatal(err)
					}
				}
				s := eng.Session(1)
				if s == nil {
					b.Fatal("session missing after prime")
				}
				deadline := time.Now().Add(5 * time.Second)
				for {
					active := 0
					for _, rs := range s.Stats().Receivers {
						if rs.Active {
							active++
						}
					}
					if active == lossyBranches {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("only %d of %d lossy branches converged", active, lossyBranches)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}

			// Drain every receiver but the first (clean) one concurrently —
			// in batches with GRO, so 63 drain goroutines on a small host
			// don't serve one syscall per datagram while the timed loop runs.
			// With the engine sending GSO super-datagrams and the drains
			// opted into GRO, a whole run of same-size frames crosses
			// loopback unsegmented and lands in one slot, so the buffers are
			// sized for coalesced (64 KiB) delivery.
			for _, rx := range rxs[1:] {
				go func(rx *net.UDPConn) {
					br := netbatch.New(rx, netbatch.Options{GRO: true})
					bufs := make([][]byte, netbatch.BatchSize)
					for i := range bufs {
						bufs[i] = make([]byte, 64<<10)
					}
					ms := make([]netbatch.Msg, netbatch.BatchSize)
					for {
						for i := range ms {
							ms[i].Buf = bufs[i]
						}
						rx.SetReadDeadline(time.Now().Add(10 * time.Second))
						if _, err := br.ReadBatch(ms); err != nil {
							return
						}
					}
				}(rx)
			}
			// Throughput, not ping-pong: keep a window of datagrams in flight
			// so the engine's batched I/O engages — trunk frames arrive in
			// recvmmsg batches and the shard writer stamps every destination
			// in coalesced sendmmsg flushes. Each op is one frame observed
			// back at the first (clean, bypass-lane) receiver; a timed-out
			// window is re-primed and the iteration still counts, since UDP
			// loss under overload must not wedge the benchmark.
			// The counting receiver opts into GRO as well: one slot may then
			// hold a coalesced run of frames, each Seg bytes long, and counts
			// for that many ops.
			rx0 := netbatch.New(rxs[0], netbatch.Options{GRO: true})
			rbufs := make([][]byte, netbatch.BatchSize)
			for i := range rbufs {
				rbufs[i] = make([]byte, packet.MaxDatagram)
			}
			rmsgs := make([]netbatch.Msg, netbatch.BatchSize)
			const window = 2 * netbatch.BatchSize

			b.SetBytes(int64(len(dgram)))
			b.ReportAllocs()
			b.ResetTimer()
			inflight, banked := 0, 0
			for i := 0; i < b.N; i++ {
				if banked > 0 {
					banked--
					continue
				}
				for inflight < window {
					k := min(len(wmsgs), window-inflight)
					n, err := cw.WriteBatch(wmsgs[:k])
					if err != nil {
						b.Fatal(err)
					}
					inflight += n
				}
				for j := range rmsgs {
					rmsgs[j].Buf = rbufs[j]
				}
				rxs[0].SetReadDeadline(time.Now().Add(500 * time.Millisecond))
				n, err := rx0.ReadBatch(rmsgs)
				if err != nil {
					inflight = 0
					continue
				}
				got := 0
				for j := 0; j < n; j++ {
					if rmsgs[j].Seg > 0 {
						got += (rmsgs[j].N + rmsgs[j].Seg - 1) / rmsgs[j].Seg
					} else {
						got++
					}
				}
				inflight -= got
				banked = got - 1
			}
		})
	}
}

// BenchmarkAdaptiveRetune measures the engine's control-path retune: one
// receiver report crossing a policy threshold, dispatched over the session's
// raplet bus to the FEC responder, which splices the adaptive encoder into or
// out of the live chain. Each op is one full report -> splice round trip
// (reports alternate 10% loss and clean, so every op changes the protection
// level). This is the control path; its cost bounds how fast the closed loop
// can react, not how fast packets relay.
func BenchmarkAdaptiveRetune(b *testing.B) {
	eng, err := engine.New(engine.Config{ListenAddr: "127.0.0.1:0", Adapt: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	c, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// Prime the session with one echoed packet.
	dgram, err := packet.AppendDatagram(nil, 1, &packet.Packet{Kind: packet.KindData, Payload: []byte("prime")})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Write(dgram); err != nil {
		b.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, packet.MaxDatagram)); err != nil {
		b.Fatalf("session never echoed: %v", err)
	}
	s := eng.Session(1)
	if s == nil {
		b.Fatal("session missing after prime")
	}

	lossy, err := packet.AppendReportDatagram(nil, 1, 0, 0, packet.Report{Received: 90, Lost: 10, Window: 100})
	if err != nil {
		b.Fatal(err)
	}
	clean, err := packet.AppendReportDatagram(nil, 1, 0, 0, packet.Report{Received: 100, Lost: 0, Window: 100})
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := lossy
		if i%2 == 1 {
			d = clean
		}
		if _, err := c.Write(d); err != nil {
			b.Fatal(err)
		}
		want := uint64(i + 1)
		deadline := time.Now().Add(5 * time.Second)
		// Park (don't spin) while waiting: a Gosched busy-wait keeps the
		// runqueue non-empty on a small GOMAXPROCS, which starves the
		// scheduler's netpoll check and delays the report's arrival at the
		// engine by a sysmon tick (~10ms). Sleeping idles the P so the shard
		// read loop wakes the moment the datagram lands.
		for spin := 0; s.AdaptRetunes() < want; spin++ {
			if spin%1024 == 1023 && time.Now().After(deadline) {
				b.Fatalf("retune %d never landed", want)
			}
			if spin < 16 {
				runtime.Gosched()
			} else {
				time.Sleep(5 * time.Microsecond)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// E2 — loss versus distance, raw and with FEC; E2b — demand-driven FEC.
// ---------------------------------------------------------------------------

// BenchmarkDistanceSweepFEC regenerates the distance sweep table (E2).
func BenchmarkDistanceSweepFEC(b *testing.B) {
	cfg := experiment.DefaultDistanceSweepConfig()
	cfg.AudioSeconds = 8
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(7 + i)
		if _, err := experiment.RunDistanceSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistanceSweepAdaptiveFEC regenerates the adaptive roaming
// experiment (E2b): an observer/responder pair inserting and removing the FEC
// filter as the simulated user walks away from and back to the access point.
func BenchmarkDistanceSweepAdaptiveFEC(b *testing.B) {
	cfg := experiment.DefaultAdaptiveWalkConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(23 + i)
		res, err := experiment.RunAdaptiveWalk(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Insertions == 0 {
			b.Fatal("adaptive FEC never engaged")
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — live filter insertion on a running stream.
// ---------------------------------------------------------------------------

// BenchmarkLiveFilterInsertion measures the latency of splicing a filter into
// a live chain (the paper's §4 add() protocol), reported per operation.
func BenchmarkLiveFilterInsertion(b *testing.B) {
	cfg := experiment.LiveInsertionConfig{StreamBytes: 8 << 20, Splices: b.N, ChunkSize: 2048}
	res, err := experiment.RunLiveInsertion(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Intact {
		b.Fatal("stream corrupted during live insertion")
	}
	b.ReportMetric(float64(res.InsertLatency.Mean().Microseconds()), "insert-us/op")
	b.ReportMetric(float64(res.RemoveLatency.Mean().Microseconds()), "remove-us/op")
}

// ---------------------------------------------------------------------------
// E4 — FEC group size sweep.
// ---------------------------------------------------------------------------

// BenchmarkFECGroupSizeSweep regenerates the (n,k) sweep table.
func BenchmarkFECGroupSizeSweep(b *testing.B) {
	cfg := experiment.DefaultGroupSizeSweepConfig()
	cfg.AudioSeconds = 8
	cfg.Receivers = 2
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(11 + i)
		if _, err := experiment.RunGroupSizeSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E7 — repair scheme comparison: FEC vs NACK-based ARQ vs no repair.
// ---------------------------------------------------------------------------

// BenchmarkRepairComparison regenerates the E7 table comparing proactive FEC
// against the retransmission baseline over the same channel.
func BenchmarkRepairComparison(b *testing.B) {
	cfg := experiment.DefaultRepairComparisonConfig()
	cfg.AudioSeconds = 8
	cfg.Receivers = 2
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(31 + i)
		if _, err := experiment.RunRepairComparison(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E5 — detachable-stream / chain-depth overhead (ablation).
// ---------------------------------------------------------------------------

// onceReader serves its payload once and then reports EOF.
type onceReader struct {
	payload []byte
	off     int
}

func (o *onceReader) Read(p []byte) (int, error) {
	if o.off >= len(o.payload) {
		return 0, io.EOF
	}
	n := copy(p, o.payload[o.off:])
	o.off += n
	return n, nil
}

// benchChainThroughput pushes size bytes through a chain with depth null
// filters between the endpoints and reports throughput.
func benchChainThroughput(b *testing.B, depth int, size int) {
	b.Helper()
	payload := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		chain := filter.NewChain(fmt.Sprintf("depth-%d", depth))
		in := endpoint.NewReader("in", &onceReader{payload: payload})
		out := endpoint.NewWriter("out", io.Discard)
		stages := []filter.Filter{in}
		for d := 0; d < depth; d++ {
			stages = append(stages, filter.NewNull(fmt.Sprintf("null-%d", d)))
		}
		stages = append(stages, out)
		for _, s := range stages {
			if err := chain.Append(s); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := chain.Start(); err != nil {
			b.Fatal(err)
		}
		out.Wait()
		b.StopTimer()
		chain.Stop()
		b.StartTimer()
	}
}

// BenchmarkNullProxyThroughput measures the cost of the full proxy data path
// (two endpoints, detachable streams, no interior filters).
func BenchmarkNullProxyThroughput(b *testing.B) {
	benchChainThroughput(b, 0, 1<<20)
}

// BenchmarkChainDepth quantifies the per-filter cost of lengthening the chain.
func BenchmarkChainDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("filters-%d", depth), func(b *testing.B) {
			benchChainThroughput(b, depth, 1<<20)
		})
	}
}

// BenchmarkDetachableStreamCopy measures raw detachable-pipe bandwidth, the
// primitive underlying every chain hop, for comparison with BenchmarkIOPipe.
func BenchmarkDetachableStreamCopy(b *testing.B) {
	payload := make([]byte, 64*1024)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		r, w := stream.Pipe()
		go func() {
			w.Write(payload)
			w.Close()
		}()
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIOPipe is the stdlib baseline for BenchmarkDetachableStreamCopy.
func BenchmarkIOPipe(b *testing.B) {
	payload := make([]byte, 64*1024)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		r, w := io.Pipe()
		go func() {
			w.Write(payload)
			w.Close()
		}()
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPauseReconnect measures the cost of the pause/reconnect splice
// primitive itself on an idle stream.
func BenchmarkPauseReconnect(b *testing.B) {
	r, w := stream.Pipe()
	go io.Copy(io.Discard, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Pause(); err != nil {
			b.Fatal(err)
		}
		if err := stream.Reconnect(w, r); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E6 — erasure coder cost (the reason FEC is offloaded to a proxy).
// ---------------------------------------------------------------------------

// BenchmarkFECEncode measures block encoding throughput for several (n,k).
func BenchmarkFECEncode(b *testing.B) {
	for _, params := range []fec.Params{{K: 4, N: 6}, {K: 4, N: 8}, {K: 8, N: 12}} {
		b.Run(params.String(), func(b *testing.B) {
			coder, err := fec.NewCoder(params)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			sources := make([][]byte, params.K)
			for i := range sources {
				sources[i] = make([]byte, 1024)
				rng.Read(sources[i])
			}
			b.SetBytes(int64(params.K * 1024))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coder.EncodeParity(sources); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFECDecode measures reconstruction cost with the maximum number of
// data losses the code can repair.
func BenchmarkFECDecode(b *testing.B) {
	for _, params := range []fec.Params{{K: 4, N: 6}, {K: 8, N: 12}} {
		b.Run(params.String(), func(b *testing.B) {
			coder, err := fec.NewCoder(params)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			sources := make([][]byte, params.K)
			for i := range sources {
				sources[i] = make([]byte, 1024)
				rng.Read(sources[i])
			}
			shares, err := coder.Encode(sources)
			if err != nil {
				b.Fatal(err)
			}
			// Drop the first n-k data shares; decode from the rest.
			have := make(map[int][]byte)
			for idx := params.N - params.K; idx < params.N; idx++ {
				have[idx] = shares[idx]
			}
			b.SetBytes(int64(params.K * 1024))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coder.Decode(have); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGF256MatrixInvert isolates the decode-path matrix inversion.
func BenchmarkGF256MatrixInvert(b *testing.B) {
	m := gf256.Vandermonde(12, 8).SelectRows([]int{4, 5, 6, 7, 8, 9, 10, 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks: simulator and workload generation rates, so
// experiment runtimes can be decomposed.
// ---------------------------------------------------------------------------

// BenchmarkWirelessChannelBroadcast measures the simulator's packet rate with
// three attached receivers.
func BenchmarkWirelessChannelBroadcast(b *testing.B) {
	ch := wireless.NewChannel(wireless.WaveLAN2Mbps())
	defer ch.Close()
	for i := 0; i < 3; i++ {
		if _, err := ch.Attach(fmt.Sprintf("rx-%d", i), wireless.NewDistanceLoss(25, 1.2), rand.New(rand.NewSource(int64(i))), 64); err != nil {
			b.Fatal(err)
		}
	}
	// Keep the receiver buffers drained so broadcasts never hit the overflow
	// path.
	for _, r := range ch.Receivers() {
		go func(r *wireless.Receiver) {
			for {
				if _, err := r.Buffer().Get(); err != nil {
					return
				}
			}
		}(r)
	}
	payload := make([]byte, 320)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: payload}
		if _, err := ch.Broadcast(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAudioSynthesis measures workload-generation cost.
func BenchmarkAudioSynthesis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := audio.GenerateSpeechLike(audio.PaperFormat(), 10*time.Second, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveRecompose measures the steady-state relay path while the
// composition plane is actively rewriting the session's chain: one session
// carries round-trip traffic as a background goroutine recomposes its trunk
// every 10ms, alternating between plans that share an instance. Recomposition
// cost lands on the control path; the figure of merit is how little the relay
// path notices.
func BenchmarkLiveRecompose(b *testing.B) {
	eng, err := engine.New(engine.Config{ListenAddr: "127.0.0.1:0", Chain: "counting"})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	addr := eng.LocalAddr().(*net.UDPAddr)

	payload := make([]byte, 320)
	rand.New(rand.NewSource(7)).Read(payload)
	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const id = 1
	dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{Seq: 1, StreamID: id, Kind: packet.KindData, Payload: payload})
	if err != nil {
		b.Fatal(err)
	}
	recv := make([]byte, packet.MaxDatagram)
	if _, err := c.Write(dgram); err != nil {
		b.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(recv); err != nil {
		b.Fatalf("session never echoed: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Minute))

	stop := make(chan struct{})
	done := make(chan struct{})
	var recomps atomic.Uint64
	go func() {
		defer close(done)
		specs := []string{"counting,checksum", "counting"}
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			if _, err := eng.RecomposeSession(id, "", specs[n%len(specs)]); err != nil {
				b.Errorf("recompose: %v", err)
				return
			}
			recomps.Add(1)
		}
	}()

	b.SetBytes(int64(len(dgram)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(dgram); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(recv); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(recomps.Load()), "recomposes")
}

// ---------------------------------------------------------------------------
// Reliability spectrum — ARQ retransmission and replay catch-up paths.
// ---------------------------------------------------------------------------

// BenchmarkEngineARQRecovery measures the NACK repair path end to end: one
// session with an arq history stage is primed with a stream, then each op is
// one NACK datagram answered with one retransmitted frame out of the bounded
// history — the per-repair cost a receiver pays after reporting a gap.
func BenchmarkEngineARQRecovery(b *testing.B) {
	eng, err := engine.New(engine.Config{ListenAddr: "127.0.0.1:0", Chain: "arq"})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	c, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const id = 1
	const primed = 256
	payload := make([]byte, 320)
	rand.New(rand.NewSource(3)).Read(payload)
	recv := make([]byte, packet.MaxDatagram)
	// Prime the history one round trip at a time so nothing is dropped on
	// either socket.
	for seq := uint64(0); seq < primed; seq++ {
		dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{Seq: seq, StreamID: id, Kind: packet.KindData, Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Write(dgram); err != nil {
			b.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(recv); err != nil {
			b.Fatalf("seq %d never echoed: %v", seq, err)
		}
	}
	nacks := make([][]byte, primed)
	for i := range nacks {
		d, err := packet.AppendNackDatagram(nil, id, 0, 0, []uint64{uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		nacks[i] = d
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Minute))

	b.SetBytes(int64(packet.SessionIDSize + packet.HeaderSize + len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(nacks[i%primed]); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(recv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBranchReplayPrime measures the late-join catch-up path: a fan-out
// session whose trunk retains a 32-deep replay window, with one op being one
// station joining the group, having its fresh delivery branch primed with the
// full retained history, and leaving again.
func BenchmarkBranchReplayPrime(b *testing.B) {
	const depth = 32
	rxA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer rxA.Close()
	rxB, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer rxB.Close()
	eng, err := engine.New(engine.Config{
		ListenAddr: "127.0.0.1:0",
		Chain:      fmt.Sprintf("replay=%d", depth),
		Fanout:     []string{rxA.LocalAddr().String()},
		Branch:     "null",
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	c, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const id = 1
	payload := make([]byte, 320)
	rand.New(rand.NewSource(5)).Read(payload)
	// Fill the replay ring through the permanent member; rxA is drained in the
	// background for the whole benchmark.
	go func() {
		buf := make([]byte, packet.MaxDatagram)
		for {
			rxA.SetReadDeadline(time.Now().Add(10 * time.Minute))
			if _, err := rxA.Read(buf); err != nil {
				return
			}
		}
	}()
	seq := uint64(0)
	send := func() {
		dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{Seq: seq, StreamID: id, Kind: packet.KindData, Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Write(dgram); err != nil {
			b.Fatal(err)
		}
		seq++
	}
	for i := 0; i < depth; i++ {
		send()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Session(id) == nil {
		if time.Now().After(deadline) {
			b.Fatal("session never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	member := rxB.LocalAddr().(*net.UDPAddr).AddrPort()
	recv := make([]byte, packet.MaxDatagram)
	rxB.SetReadDeadline(time.Now().Add(10 * time.Minute))

	// leave tears the joiner's branch back down between ops (outside the
	// timed region): membership changes only apply at the next dispatch, so
	// push one trunk frame through and wait until the branch is gone.
	leave := func() {
		eng.FanoutGroup().Remove(member)
		send()
		deadline := time.Now().Add(5 * time.Second)
		for len(eng.Session(id).Stats().Receivers) > 1 {
			if time.Now().After(deadline) {
				b.Fatal("branch never torn down")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.FanoutGroup().Add(member)
		send() // the next trunk frame reconciles the tree, building and priming the branch
		// The joiner sees the retained window plus the live frame.
		for got := 0; got < depth+1; got++ {
			if _, err := rxB.Read(recv); err != nil {
				b.Fatalf("op %d: read %d of %d primed frames: %v", i, got, depth+1, err)
			}
		}
		b.StopTimer()
		leave()
		b.StartTimer()
	}
	b.ReportMetric(depth, "primed/op")
}

// ---------------------------------------------------------------------------
// Idle-session parking: the million-session economics.
// ---------------------------------------------------------------------------

// BenchmarkSessionParkUnpark measures one full park/wake cycle on a single
// session: the harvester's drain-and-stop teardown, then the first-packet
// chain rebuild and its echo. This is the latency a peer pays on the first
// datagram after an idle period — the entire cost of parking, since every
// other datagram takes the normal hot path.
func BenchmarkSessionParkUnpark(b *testing.B) {
	eng, err := engine.New(engine.Config{ListenAddr: "127.0.0.1:0", IdleTTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	addr := eng.LocalAddr().(*net.UDPAddr)

	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const id = 1
	dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{
		Seq: 1, StreamID: id, Kind: packet.KindData, Payload: make([]byte, 320),
	})
	if err != nil {
		b.Fatal(err)
	}
	recv := make([]byte, packet.MaxDatagram)
	c.SetReadDeadline(time.Now().Add(10 * time.Minute))
	if _, err := c.Write(dgram); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Read(recv); err != nil {
		b.Fatalf("prime echo: %v", err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ParkSession(id); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Write(dgram); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(recv); err != nil {
			b.Fatalf("wake echo: %v", err)
		}
	}
}

// BenchmarkEngineIdleChurn measures steady-state session churn against a
// full table under the harvest admission policy: each op contacts a fresh
// session ID — evicting the oldest parked session to admit it — echoes one
// datagram through the new chain, and parks it again. This is the sustained
// arrival/retirement cycle a million-session deployment lives in; the table
// holds MaxSessions parked records throughout.
func BenchmarkEngineIdleChurn(b *testing.B) {
	const capSessions = 1024
	eng, err := engine.New(engine.Config{
		ListenAddr:  "127.0.0.1:0",
		IdleTTL:     time.Hour,
		MaxSessions: capSessions,
		Admission:   engine.AdmitHarvest,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	addr := eng.LocalAddr().(*net.UDPAddr)

	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	recv := make([]byte, packet.MaxDatagram)
	c.SetReadDeadline(time.Now().Add(10 * time.Minute))

	payload := make([]byte, 320)
	dgram := make([]byte, 0, packet.SessionIDSize+packet.HeaderSize+len(payload))
	// Fill the table with parked sessions so every measured op churns at
	// capacity rather than into free slots.
	for id := uint32(1); id <= capSessions; id++ {
		dgram = dgram[:0]
		if dgram, err = packet.AppendDatagram(dgram, id, &packet.Packet{
			Seq: 1, StreamID: id, Kind: packet.KindData, Payload: payload,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Write(dgram); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(recv); err != nil {
			b.Fatalf("session %d: prime echo: %v", id, err)
		}
		if err := eng.ParkSession(id); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint32(capSessions + i + 1)
		dgram = dgram[:0]
		if dgram, err = packet.AppendDatagram(dgram, id, &packet.Packet{
			Seq: 1, StreamID: id, Kind: packet.KindData, Payload: payload,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Write(dgram); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(recv); err != nil {
			b.Fatalf("op %d: churn echo: %v", i, err)
		}
		if err := eng.ParkSession(id); err != nil {
			b.Fatal(err)
		}
	}
}
