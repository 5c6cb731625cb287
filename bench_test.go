package rapidware

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/arq"
	"rapidware/internal/audio"
	"rapidware/internal/compose"
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

// benchPayload is the payload of the engine benchmarks' datagrams: one
// paper-sized audio packet.
const benchPayload = 320

// benchDgramSize is the wire size of one engine benchmark datagram.
const benchDgramSize = packet.SessionIDSize + packet.HeaderSize + benchPayload

// The engine benchmarks' setup helpers below are shared with the allocation
// bounds in alloc_test.go: each builds the benchmark's engine and clients,
// primes them, and returns the one operation the benchmark times.

// startEngine builds and starts an engine from cfg on a loopback port; it is
// closed when tb finishes.
func startEngine(tb testing.TB, cfg engine.Config) *engine.Engine {
	tb.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	eng, err := engine.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	return eng
}

// listenLoopback opens an unconnected loopback UDP socket, closed when tb
// finishes.
func listenLoopback(tb testing.TB) *net.UDPConn {
	tb.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// dialEngine opens a UDP socket connected to eng, closed when tb finishes.
func dialEngine(tb testing.TB, eng *engine.Engine) *net.UDPConn {
	tb.Helper()
	c, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// benchDatagram frames one data packet of session id.
func benchDatagram(tb testing.TB, id uint32, seq uint64, payload []byte) []byte {
	tb.Helper()
	dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{Seq: seq, StreamID: id, Kind: packet.KindData, Payload: payload})
	if err != nil {
		tb.Fatal(err)
	}
	return dgram
}

// roundTrip writes dgram on c and reads one reply into recv.
func roundTrip(tb testing.TB, c *net.UDPConn, dgram, recv []byte) {
	if _, err := c.Write(dgram); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Read(recv); err != nil {
		tb.Fatal(err)
	}
}

// primeRoundTrip is roundTrip bounded by a short deadline, after which c
// gets one generous absolute deadline: per-op SetReadDeadline calls would put
// deadline bookkeeping in the measured path.
func primeRoundTrip(tb testing.TB, c *net.UDPConn, dgram, recv []byte) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	roundTrip(tb, c, dgram, recv)
	c.SetReadDeadline(time.Now().Add(10 * time.Minute))
}

// BenchmarkEngineMultiSession measures the engine's steady-state relay path
// with 256 concurrent UDP sessions on one socket. Each op is one full round
// trip: client datagram -> engine demux -> session chain -> echoed datagram.
// The path is pooled end to end, so allocs/op must stay at (near) zero;
// TestEngineMultiSessionAllocs bounds it at 2.
func BenchmarkEngineMultiSession(b *testing.B) {
	op := multiSessionEcho(b)
	b.SetBytes(benchDgramSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// multiSessionEcho primes 256 sessions, one client socket each, and returns
// one round trip, cycling over the sessions.
func multiSessionEcho(tb testing.TB) func() {
	const sessions = 256
	eng := startEngine(tb, engine.Config{MaxSessions: sessions})
	payload := make([]byte, benchPayload)
	rand.New(rand.NewSource(42)).Read(payload)
	conns := make([]*net.UDPConn, sessions)
	dgrams := make([][]byte, sessions)
	recv := make([]byte, packet.MaxDatagram)
	for i := range conns {
		conns[i] = dialEngine(tb, eng)
		dgrams[i] = benchDatagram(tb, uint32(i+1), uint64(i), payload)
		// Prime the session (and warm the pools) with one round trip.
		primeRoundTrip(tb, conns[i], dgrams[i], recv)
	}
	if n := eng.SessionCount(); n != sessions {
		tb.Fatalf("primed %d sessions, want %d", n, sessions)
	}
	next := 0
	return func() {
		roundTrip(tb, conns[next], dgrams[next], recv)
		next = (next + 1) % sessions
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

// chainCases are the one-shard session chains BenchmarkEngineChainDepth
// times and TestEngineChainDepthAllocs bounds, with the steady-state
// allocations per echo each must stay within: a pure relay deepening to eight
// null stages, the frame-native kinds that keep a frame history (arq, replay)
// or drop frames (thin), and a DEFLATE round trip.
var chainCases = []struct {
	name, spec string
	allocs     float64
}{
	{"stages-0", "", 0},
	{"stages-1", "null", 0},
	{"stages-2", "null,null", 0},
	{"stages-4", "null,null,null,null", 0},
	{"stages-8", "null,null,null,null,null,null,null,null", 0},
	{"arq", "arq", 0},
	{"replay=64", "replay=64", 0},
	{"thin=1", "thin=1", 0},
	{"counting,arq,replay=64", "counting,arq,replay=64", 0},
	{"compress,decompress", "compress,decompress", 0},
}

// BenchmarkEngineChainDepth is the same windowed echo through one shard over
// each of chainCases' chains. The null depths are the per-stage tax of the
// engine's executor, which the stream-mode BenchmarkChainDepth cannot see:
// every stage runs inline on the shard reader and should cost two counter
// updates and a call, so those timings are expected to be nearly flat.
func BenchmarkEngineChainDepth(b *testing.B) {
	for _, tc := range chainCases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			benchWindowedEcho(b, engine.Config{Shards: 1, Chain: tc.spec})
		})
	}
}

// startEchoEngine starts an engine from cfg and returns its address.
func startEchoEngine(tb testing.TB, cfg engine.Config) netip.AddrPort {
	return startEngine(tb, cfg).LocalAddr().(*net.UDPAddr).AddrPort()
}

// benchWindowedEcho drives an engine built from cfg with GOMAXPROCS
// windowed clients, one session each. One pb.Next() is one echoed datagram.
func benchWindowedEcho(b *testing.B, cfg engine.Config) {
	dst := startEchoEngine(b, cfg)
	var nextID atomic.Uint32
	b.SetBytes(benchDgramSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w, err := newEchoClient(dst, nextID.Add(1))
		if err != nil {
			b.Error(err)
			return
		}
		defer w.close()
		for pb.Next() {
			if err := w.step(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// echoWindow is how many datagrams an echoClient keeps in flight.
const echoWindow = 4 * netbatch.BatchSize

// echoClient is one batched client socket carrying one session, keeping a
// window of datagrams in flight, topped up and drained a batch at a time.
// The socket is unconnected: WriteBatch addresses every datagram explicitly,
// which works identically on the mmsg fast path and the portable fallback.
type echoClient struct {
	c        *net.UDPConn
	bc       netbatch.Conn
	wmsgs    []netbatch.Msg
	rbufs    [][]byte
	rmsgs    []netbatch.Msg
	inflight int
	banked   int
}

// newEchoClient opens a client for session id against dst and primes the
// session, with bounded retries: the first datagram can race the session
// open under heavy parallelism.
func newEchoClient(dst netip.AddrPort, id uint32) (*echoClient, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, benchPayload)
	rand.New(rand.NewSource(7)).Read(payload)
	dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{Seq: uint64(id), StreamID: id, Kind: packet.KindData, Payload: payload})
	if err != nil {
		c.Close()
		return nil, err
	}
	w := &echoClient{
		c:     c,
		bc:    netbatch.New(c, netbatch.Options{GSO: netbatch.GSOAvailable}),
		wmsgs: make([]netbatch.Msg, netbatch.BatchSize),
		rbufs: make([][]byte, netbatch.BatchSize),
		rmsgs: make([]netbatch.Msg, netbatch.BatchSize),
	}
	for i := range w.wmsgs {
		w.wmsgs[i] = netbatch.Msg{Buf: dgram, Addr: dst}
		w.rbufs[i] = make([]byte, packet.MaxDatagram)
	}
	for attempt := 0; attempt < 10; attempt++ {
		if _, err := w.bc.WriteBatch(w.wmsgs[:1]); err != nil {
			c.Close()
			return nil, err
		}
		if _, err := w.readBatch(time.Second); err == nil {
			return w, nil
		}
	}
	c.Close()
	return nil, fmt.Errorf("session %d never echoed during priming", id)
}

func (w *echoClient) readBatch(deadline time.Duration) (int, error) {
	for i := range w.rmsgs {
		w.rmsgs[i].Buf = w.rbufs[i]
	}
	w.c.SetReadDeadline(time.Now().Add(deadline))
	return w.bc.ReadBatch(w.rmsgs)
}

// step accounts for one echoed datagram. A timed-out window is re-primed and
// the step still counts (UDP loss under overload must not wedge the
// benchmark); echoes beyond the current step are banked against later ones.
func (w *echoClient) step() error {
	if w.banked > 0 {
		w.banked--
		return nil
	}
	for w.inflight < echoWindow {
		k := min(len(w.wmsgs), echoWindow-w.inflight)
		n, err := w.bc.WriteBatch(w.wmsgs[:k])
		if err != nil {
			return err
		}
		w.inflight += n
	}
	n, err := w.readBatch(500 * time.Millisecond)
	if err != nil {
		w.inflight = 0
		return nil
	}
	w.inflight -= n
	w.banked = n - 1
	return nil
}

// close drains stragglers, so the next sub-benchmark starts clean, and
// closes the socket.
func (w *echoClient) close() {
	for w.inflight > 0 {
		n, err := w.readBatch(50 * time.Millisecond)
		if err != nil {
			break
		}
		w.inflight -= n
	}
	w.c.Close()
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
	for _, tc := range fanoutCases {
		b.Run(tc.String(), func(b *testing.B) {
			op := fanoutDelivery(b, tc)
			b.SetBytes(benchDgramSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// fanoutCase is one shape of BenchmarkEngineFanoutBranches.
type fanoutCase struct {
	receivers int
	mixed     bool
}

var fanoutCases = []fanoutCase{{1, false}, {8, false}, {64, false}, {8, true}, {64, true}}

func (tc fanoutCase) String() string {
	if tc.mixed {
		return fmt.Sprintf("receivers-%d-mixed", tc.receivers)
	}
	return fmt.Sprintf("receivers-%d", tc.receivers)
}

// fanoutDelivery stands up a fan-out session of tc's shape, converges its
// cohorts, starts the drains of every receiver but the first, and returns one
// frame observed back at that first (clean, bypass-lane) receiver.
func fanoutDelivery(tb testing.TB, tc fanoutCase) func() {
	rxs := make([]*net.UDPConn, tc.receivers)
	fanout := make([]string, tc.receivers)
	for i := range rxs {
		rxs[i] = listenLoopback(tb)
		fanout[i] = rxs[i].LocalAddr().String()
	}
	eng := startEngine(tb, engine.Config{Adapt: true, Fanout: fanout})
	engAddr := eng.LocalAddr().(*net.UDPAddr)
	cw := netbatch.New(listenLoopback(tb), netbatch.Options{})

	payload := make([]byte, benchPayload)
	rand.New(rand.NewSource(9)).Read(payload)
	dgram := benchDatagram(tb, 1, 1, payload)
	wmsgs := make([]netbatch.Msg, netbatch.BatchSize)
	for i := range wmsgs {
		wmsgs[i] = netbatch.Msg{Buf: dgram, Addr: engAddr.AddrPort()}
	}

	// Prime the session: every receiver sees the first packet.
	if _, err := cw.WriteBatch(wmsgs[:1]); err != nil {
		tb.Fatal(err)
	}
	recv := make([]byte, packet.MaxDatagram)
	for _, rx := range rxs {
		rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := rx.Read(recv); err != nil {
			tb.Fatalf("receiver never got the primed packet: %v", err)
		}
	}

	if tc.mixed {
		// Heterogeneous channels: odd receivers report 10% loss (their
		// cohort splices in the (8,4) encoder), even receivers are clean and
		// stay on the bypass lane.
		lossyBranches := 0
		for i, rx := range rxs {
			rep := packet.Report{Received: 100, Window: 100}
			if i%2 == 1 {
				rep = packet.Report{Received: 90, Lost: 10, Window: 100}
				lossyBranches++
			}
			rdgram, err := packet.AppendReportDatagram(nil, 1, 0, 0, rep)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := rx.WriteToUDP(rdgram, engAddr); err != nil {
				tb.Fatal(err)
			}
		}
		s := eng.Session(1)
		if s == nil {
			tb.Fatal("session missing after prime")
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
				tb.Fatalf("only %d of %d lossy branches converged", active, lossyBranches)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Drain every receiver but the first (clean) one concurrently, until its
	// socket closes — in batches with GRO, so 63 drain goroutines on a small
	// host don't serve one syscall per datagram while the timed loop runs.
	// With the engine sending GSO super-datagrams and the drains opted into
	// GRO, a whole run of same-size frames crosses loopback unsegmented and
	// lands in one slot, so the buffers are sized for coalesced (64 KiB)
	// delivery. They are allocated here, before the op is timed.
	for _, rx := range rxs[1:] {
		br := netbatch.New(rx, netbatch.Options{GRO: true})
		bufs := make([][]byte, netbatch.BatchSize)
		for i := range bufs {
			bufs[i] = make([]byte, 64<<10)
		}
		ms := make([]netbatch.Msg, netbatch.BatchSize)
		go func() {
			for {
				for i := range ms {
					ms[i].Buf = bufs[i]
				}
				rx.SetReadDeadline(time.Now().Add(10 * time.Second))
				if _, err := br.ReadBatch(ms); err != nil {
					return
				}
			}
		}()
	}
	// Throughput, not ping-pong: keep a window of datagrams in flight so the
	// engine's batched I/O engages — trunk frames arrive in recvmmsg batches
	// and the shard writer stamps every destination in coalesced sendmmsg
	// flushes. A timed-out window is re-primed and the op still counts, since
	// UDP loss under overload must not wedge the benchmark. The counting
	// receiver opts into GRO as well: one slot may then hold a coalesced run
	// of frames, each Seg bytes long, and counts for that many ops.
	rx0 := netbatch.New(rxs[0], netbatch.Options{GRO: true})
	rbufs := make([][]byte, netbatch.BatchSize)
	for i := range rbufs {
		rbufs[i] = make([]byte, packet.MaxDatagram)
	}
	rmsgs := make([]netbatch.Msg, netbatch.BatchSize)
	const window = 2 * netbatch.BatchSize
	inflight, banked := 0, 0
	return func() {
		if banked > 0 {
			banked--
			return
		}
		for inflight < window {
			k := min(len(wmsgs), window-inflight)
			n, err := cw.WriteBatch(wmsgs[:k])
			if err != nil {
				tb.Fatal(err)
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
			return
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
}

// BenchmarkAdaptiveRetune measures the engine's control-path retune: one
// receiver report crossing a policy threshold, decided by the session's trunk
// loop on the shard reader that reads it, which splices an FEC encoder into
// or out of the live chain. Each op is one full report -> splice round trip
// (reports alternate 10% loss and clean, so every op changes the protection
// level). This is the control path; its cost bounds how fast the closed loop
// can react, not how fast packets relay.
func BenchmarkAdaptiveRetune(b *testing.B) {
	op := adaptiveRetune(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// adaptiveRetune primes one adaptive session and returns one report ->
// retune round trip.
func adaptiveRetune(tb testing.TB) func() {
	eng := startEngine(tb, engine.Config{Adapt: true})
	c := dialEngine(tb, eng)
	primeRoundTrip(tb, c, benchDatagram(tb, 1, 0, []byte("prime")), make([]byte, packet.MaxDatagram))
	s := eng.Session(1)
	if s == nil {
		tb.Fatal("session missing after prime")
	}

	lossy, err := packet.AppendReportDatagram(nil, 1, 0, 0, packet.Report{Received: 90, Lost: 10, Window: 100})
	if err != nil {
		tb.Fatal(err)
	}
	clean, err := packet.AppendReportDatagram(nil, 1, 0, 0, packet.Report{Received: 100, Lost: 0, Window: 100})
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	return func() {
		d := lossy
		if n%2 == 1 {
			d = clean
		}
		n++
		want := s.AdaptRetunes() + 1
		if _, err := c.Write(d); err != nil {
			tb.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		// Park (don't spin) while waiting: a Gosched busy-wait keeps the
		// runqueue non-empty on a small GOMAXPROCS, which starves the
		// scheduler's netpoll check and delays the report's arrival at the
		// engine by a sysmon tick (~10ms). Sleeping idles the P so the shard
		// read loop wakes the moment the datagram lands.
		for spin := 0; s.AdaptRetunes() < want; spin++ {
			if spin%1024 == 1023 && time.Now().After(deadline) {
				tb.Fatalf("retune %d never landed", want)
			}
			if spin < 16 {
				runtime.Gosched()
			} else {
				time.Sleep(5 * time.Microsecond)
			}
		}
	}
}

// BenchmarkEngineAdaptiveTrunkFEC measures a unicast adaptive trunk with FEC
// engaged: the policy's one rung, (6,4), has the trunk's loop splice an
// encoder in at the fec-adapt marker before the first datagram, the same
// fixed-code encoder it swaps in on every level change. Each op is one client
// datagram; every fourth completes a group, whose six shares are read back.
// TestEngineAdaptiveTrunkFECAllocs bounds it at 0 allocs/op.
func BenchmarkEngineAdaptiveTrunkFEC(b *testing.B) {
	op := adaptiveTrunkFEC(b)
	b.SetBytes(benchDgramSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// adaptiveTrunkFEC primes one adaptive session under the one-rung policy
// 0:6/4 with a full group and returns one datagram's op.
func adaptiveTrunkFEC(tb testing.TB) func() {
	const k, n = 4, 6
	policy, err := adapt.ParsePolicy("0:6/4")
	if err != nil {
		tb.Fatal(err)
	}
	eng := startEngine(tb, engine.Config{Adapt: true, AdaptPolicy: policy})
	c := dialEngine(tb, eng)
	dgram := benchDatagram(tb, 1, 0, make([]byte, benchPayload))
	recv := make([]byte, packet.MaxDatagram)
	sent := 0
	op := func() {
		if _, err := c.Write(dgram); err != nil {
			tb.Fatal(err)
		}
		if sent++; sent%k != 0 {
			return
		}
		for i := 0; i < n; i++ {
			if _, err := c.Read(recv); err != nil {
				tb.Fatal(err)
			}
		}
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < k; i++ {
		op()
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Minute))
	return op
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
// E5 — pump / chain-depth overhead (ablation).
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
		stages := []filter.Stage{endpoint.NewReader("in", &onceReader{payload: payload})}
		for d := 0; d < depth; d++ {
			stages = append(stages, filter.NewNull(fmt.Sprintf("null-%d", d)))
		}
		stages = append(stages, endpoint.NewWriter("out", io.Discard))
		for _, s := range stages {
			if err := chain.Append(s); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := chain.Start(); err != nil {
			b.Fatal(err)
		}
		if err := chain.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNullProxyThroughput measures the cost of the full proxy data path
// (two endpoints and the pump, no interior filters).
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

// BenchmarkStreamPipeCopy measures stream.Pipe bandwidth, for comparison with
// BenchmarkIOPipe.
func BenchmarkStreamPipeCopy(b *testing.B) {
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

// BenchmarkIOPipe is the stdlib baseline for BenchmarkStreamPipeCopy.
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

// BenchmarkSetInteriorSplice measures the splice primitive itself on an idle
// chain: one stage in, then out again.
func BenchmarkSetInteriorSplice(b *testing.B) {
	fc := filter.NewFrameChain((*packet.Buf).Release)
	stage := filter.NewNull("spliced")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fc.SetInterior([]filter.Filter{stage}); err != nil {
			b.Fatal(err)
		}
		if err := fc.SetInterior(nil); err != nil {
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

// BenchmarkWirelessChannelBroadcast measures the simulator's loss-draw rate
// with three attached receivers.
func BenchmarkWirelessChannelBroadcast(b *testing.B) {
	ch := wireless.NewChannel(wireless.WaveLAN2Mbps())
	for i := 0; i < 3; i++ {
		if _, err := ch.Attach(fmt.Sprintf("rx-%d", i), wireless.NewDistanceLoss(25, 1.2), rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	const payload = 320
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Broadcast(packet.HeaderSize + payload)
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
	eng := startEngine(b, engine.Config{Chain: "counting"})
	c := dialEngine(b, eng)
	payload := make([]byte, benchPayload)
	rand.New(rand.NewSource(7)).Read(payload)
	const id = 1
	dgram := benchDatagram(b, id, 1, payload)
	recv := make([]byte, packet.MaxDatagram)
	primeRoundTrip(b, c, dgram, recv)

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
			if _, err := eng.EditSession(id, "", compose.Replace(specs[n%len(specs)])); err != nil {
				b.Errorf("recompose: %v", err)
				return
			}
			recomps.Add(1)
		}
	}()

	b.SetBytes(benchDgramSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, c, dgram, recv)
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(recomps.Load()), "recomposes")
}

// ---------------------------------------------------------------------------
// Reliability spectrum — ARQ retransmission and replay catch-up paths.
// ---------------------------------------------------------------------------

// BenchmarkEngineARQRecovery measures the NACK repair path end to end on one
// requester within its retransmission budget: one session with an arq
// history stage is primed with a stream, then each op relays the stream's
// next arqStreamPerRepair frames and answers one NACK for an earlier frame
// with a retransmission out of the bounded history — the repair cycle of a
// receiver that loses one datagram in arqStreamPerRepair+1. The budget grows
// with the stream relayed to the requester, so the loop runs as long as b.N
// asks with no NACK refused.
func BenchmarkEngineARQRecovery(b *testing.B) {
	op := arqRecovery(b)
	b.SetBytes((arqStreamPerRepair + 1) * benchDgramSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// arqStreamPerRepair is the stream frames BenchmarkEngineARQRecovery relays
// per repair: a requester may draw one byte in arq.RetransmitShare of what it
// is relayed, retransmissions included, so one repair per
// arq.RetransmitShare stream frames keeps it inside its budget.
const arqStreamPerRepair = arq.RetransmitShare

// arqRecovery primes an arq session's history and returns one repair cycle:
// the stream's next arqStreamPerRepair frames and a NACK for the first frame
// of the previous cycle, written back to back, and every datagram read back.
// The stream's sequence numbers cycle through the history's depth, so every
// datagram is built once.
func arqRecovery(tb testing.TB) func() {
	eng := startEngine(tb, engine.Config{Chain: "arq"})
	c := dialEngine(tb, eng)

	const id = 1
	const depth = arq.DefaultHistory
	payload := make([]byte, benchPayload)
	rand.New(rand.NewSource(3)).Read(payload)
	recv := make([]byte, packet.MaxDatagram)
	stream := make([][]byte, depth)
	nacks := make([][]byte, depth)
	for seq := range stream {
		stream[seq] = benchDatagram(tb, id, uint64(seq), payload)
		d, err := packet.AppendNackDatagram(nil, id, 0, 0, []uint64{uint64(seq)})
		if err != nil {
			tb.Fatal(err)
		}
		nacks[seq] = d
	}
	// Prime one cycle's frames one round trip at a time so nothing is
	// dropped on either socket.
	for seq := 0; seq < arqStreamPerRepair; seq++ {
		primeRoundTrip(tb, c, stream[seq], recv)
	}
	next := arqStreamPerRepair
	return func() {
		for i := range arqStreamPerRepair {
			if _, err := c.Write(stream[(next+i)%depth]); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := c.Write(nacks[(next+depth-arqStreamPerRepair)%depth]); err != nil {
			tb.Fatal(err)
		}
		for range arqStreamPerRepair + 1 {
			if _, err := c.Read(recv); err != nil {
				tb.Fatal(err)
			}
		}
		next = (next + arqStreamPerRepair) % depth
	}
}

// BenchmarkBranchReplayPrime measures the late-join catch-up path: a fan-out
// session whose trunk retains a 32-deep replay window, with one op being one
// station joining the group and having its fresh delivery branch primed with
// the full retained history. It leaves again between ops, untimed.
func BenchmarkBranchReplayPrime(b *testing.B) {
	join, leave := branchReplayPrime(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join()
		b.StopTimer()
		leave()
		b.StartTimer()
	}
	b.ReportMetric(replayDepth, "primed/op")
}

// replayDepth is BenchmarkBranchReplayPrime's replay window.
const replayDepth = 32

// branchReplayPrime fills a fan-out session's replay window through one
// permanent member and returns a second station's join (its branch primed
// and every primed frame read back) and its leave.
func branchReplayPrime(tb testing.TB) (join, leave func()) {
	rxA, rxB := listenLoopback(tb), listenLoopback(tb)
	eng := startEngine(tb, engine.Config{
		Chain:  fmt.Sprintf("replay=%d", replayDepth),
		Fanout: []string{rxA.LocalAddr().String()},
		Branch: "null",
	})
	c := dialEngine(tb, eng)

	const id = 1
	payload := make([]byte, benchPayload)
	rand.New(rand.NewSource(5)).Read(payload)
	// rxA is drained in the background until its socket closes.
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
		if _, err := c.Write(benchDatagram(tb, id, seq, payload)); err != nil {
			tb.Fatal(err)
		}
		seq++
	}
	for i := 0; i < replayDepth; i++ {
		send()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Session(id) == nil {
		if time.Now().After(deadline) {
			tb.Fatal("session never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	member := rxB.LocalAddr().(*net.UDPAddr).AddrPort()
	recv := make([]byte, packet.MaxDatagram)
	rxB.SetReadDeadline(time.Now().Add(10 * time.Minute))

	join = func() {
		eng.FanoutGroup().Add(member)
		send() // the next trunk frame reconciles the tree, building and priming the branch
		// The joiner sees the retained window plus the live frame.
		for got := 0; got < replayDepth+1; got++ {
			if _, err := rxB.Read(recv); err != nil {
				tb.Fatalf("read %d of %d primed frames: %v", got, replayDepth+1, err)
			}
		}
	}
	// Membership changes only apply at the next dispatch, so leave pushes
	// one trunk frame through and waits until the branch is gone.
	leave = func() {
		eng.FanoutGroup().Remove(member)
		send()
		deadline := time.Now().Add(5 * time.Second)
		for len(eng.Session(id).Stats().Receivers) > 1 {
			if time.Now().After(deadline) {
				tb.Fatal("branch never torn down")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return join, leave
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
	op := sessionParkUnpark(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// sessionParkUnpark primes one session and returns one park, wake and echo.
func sessionParkUnpark(tb testing.TB) func() {
	eng := startEngine(tb, engine.Config{IdleTTL: time.Hour})
	c := dialEngine(tb, eng)
	const id = 1
	dgram := benchDatagram(tb, id, 1, make([]byte, benchPayload))
	recv := make([]byte, packet.MaxDatagram)
	primeRoundTrip(tb, c, dgram, recv)
	return func() {
		if err := eng.ParkSession(id); err != nil {
			tb.Fatal(err)
		}
		roundTrip(tb, c, dgram, recv)
	}
}

// BenchmarkEngineIdleChurn measures steady-state session churn against a
// full table under the harvest admission policy: each op contacts a fresh
// session ID — evicting the longest-parked session to admit it — echoes one
// datagram through the new chain, and parks it again. This is the sustained
// arrival/retirement cycle a million-session deployment lives in; the table
// holds MaxSessions parked records throughout. The victim is a parked list's
// head, so the op costs the same at either cap.
func BenchmarkEngineIdleChurn(b *testing.B) {
	for _, capSessions := range []int{1024, 65536} {
		op := idleChurn(b, capSessions)
		b.Run(fmt.Sprintf("cap=%d", capSessions), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// idleChurn fills a harvest-admission table of capSessions with parked
// sessions and returns one fresh session's admission, echo and park.
func idleChurn(tb testing.TB, capSessions int) func() {
	eng := startEngine(tb, engine.Config{
		IdleTTL:     time.Hour,
		MaxSessions: capSessions,
		Admission:   engine.AdmitHarvest,
	})
	c := dialEngine(tb, eng)
	recv := make([]byte, packet.MaxDatagram)
	payload := make([]byte, benchPayload)
	dgram := make([]byte, 0, benchDgramSize)
	// churn admits, echoes and parks session id, framing into dgram's
	// storage so the op itself does not allocate a datagram.
	churn := func(id uint32) {
		var err error
		if dgram, err = packet.AppendDatagram(dgram[:0], id, &packet.Packet{
			Seq: 1, StreamID: id, Kind: packet.KindData, Payload: payload,
		}); err != nil {
			tb.Fatal(err)
		}
		roundTrip(tb, c, dgram, recv)
		if err := eng.ParkSession(id); err != nil {
			tb.Fatal(err)
		}
	}
	// Fill the table with parked sessions so every measured op churns at
	// capacity rather than into free slots.
	c.SetReadDeadline(time.Now().Add(10 * time.Minute))
	id := uint32(0)
	for id < uint32(capSessions) {
		id++
		churn(id)
	}
	return func() {
		id++
		churn(id)
	}
}
