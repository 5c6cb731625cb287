package rapidware

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/control"
	"rapidware/internal/endpoint"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// TestEndToEndProxyOverTCPWithControlPlane wires the whole system together
// the way rapidproxy -mode stream does, but in-process: a producer streams
// framed packets over a real TCP connection into a proxy whose chain is a
// compose.Live served to the control plane as session 1, the proxy forwards
// them over a second TCP connection to a consumer, and while the stream is
// flowing a control client (the ControlManager role) splices an FEC decoder,
// an FEC encoder and a lossy "wireless" hop into the session's plan. Every
// packet must still arrive exactly once despite the injected loss.
func TestEndToEndProxyOverTCPWithControlPlane(t *testing.T) {
	const totalPackets = 3000

	// --- downstream consumer -------------------------------------------------
	downstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer downstreamLn.Close()
	type consumeResult struct {
		payloads [][]byte
		err      error
	}
	consumed := make(chan consumeResult, 1)
	go func() {
		conn, err := downstreamLn.Accept()
		if err != nil {
			consumed <- consumeResult{nil, err}
			return
		}
		defer conn.Close()
		pr := packet.NewReader(conn)
		var got [][]byte
		for {
			p, err := pr.ReadPacket()
			if err == io.EOF {
				consumed <- consumeResult{got, nil}
				return
			}
			if err != nil {
				consumed <- consumeResult{got, err}
				return
			}
			if p.Kind == packet.KindData {
				got = append(got, p.Payload)
			}
		}
	}()

	// --- the proxy ------------------------------------------------------------
	upstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upstreamLn.Close()

	registry := compose.Default().Clone()
	// The lossy hop drops one data packet out of every FEC group that carries
	// parity — a loss pattern the (6,4) code always repairs, so the
	// end-to-end check stays deterministic while forcing the decoder to do
	// real work on every group. It buffers one group at a time and only
	// applies the drop once it has seen the group's parity, so the final,
	// partial group (which is flushed without parity when the stream ends) is
	// never exposed to unrepairable loss, no matter when the splice happened.
	if err := registry.Register(compose.Definition{Kind: "wireless-hop", Build: func(env compose.Env, _ string) (filter.Filter, error) {
		var pend []*packet.Buf
		flushGroup := func(emit func(*packet.Buf)) error {
			hasParity := false
			for _, b := range pend {
				if packet.FrameKind(b.B) == packet.KindParity {
					hasParity = true
					break
				}
			}
			for _, b := range pend {
				if _, index, _, _ := packet.FrameBlock(b.B); hasParity && packet.FrameKind(b.B) == packet.KindData && index == 1 {
					b.Release() // the injected loss
					continue
				}
				emit(b)
			}
			clear(pend)
			pend = pend[:0]
			return nil
		}
		return filter.NewFrame(env.StageName("wireless-hop"), func(b *packet.Buf, emit func(*packet.Buf)) error {
			group, _, _, n := packet.FrameBlock(b.B)
			if n == 0 {
				flushGroup(emit)
				emit(b)
				return nil
			}
			if len(pend) > 0 {
				if first, _, _, _ := packet.FrameBlock(pend[0].B); first != group {
					flushGroup(emit)
				}
			}
			pend = append(pend, b)
			return nil
		}, flushGroup), nil
	}}); err != nil {
		t.Fatal(err)
	}

	chain := filter.NewChain("integration-proxy")
	ctrl := control.NewServer(nil)
	proxyReady := make(chan error, 1)
	go func() {
		upConn, err := upstreamLn.Accept()
		if err != nil {
			proxyReady <- err
			return
		}
		downConn, err := net.Dial("tcp", downstreamLn.Addr().String())
		if err != nil {
			proxyReady <- err
			return
		}
		// The input endpoint is frame-aware: it hands the chain one whole
		// frame at a time, so live splices always happen on frame boundaries
		// (the paper's requirement for format-specific filters).
		frameReader := packet.NewReader(upConn)
		in := endpoint.NewPacketSource("upstream", func() (*packet.Packet, error) {
			p, err := frameReader.ReadPacket()
			if err != nil {
				upConn.Close()
				return nil, io.EOF
			}
			return p, nil
		})
		for _, s := range []filter.Stage{in, endpoint.NewWriter("downstream", downConn)} {
			if err := chain.Append(s); err != nil {
				proxyReady <- err
				return
			}
		}
		live, err := compose.Attach(chain, registry, compose.Env{StreamID: 1}, compose.ModeChain, compose.Plan{})
		if err != nil {
			proxyReady <- err
			return
		}
		ctrl.SetSessionSource(compose.NewStreamSession(live))
		proxyReady <- chain.Start()
	}()

	ctrlAddr, err := ctrl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// --- upstream producer ----------------------------------------------------
	upConn, err := net.Dial("tcp", upstreamLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-proxyReady; err != nil {
		t.Fatal(err)
	}
	defer chain.Stop()

	producerDone := make(chan error, 1)
	go func() {
		pw := packet.NewWriter(upConn)
		for i := 0; i < totalPackets; i++ {
			p := &packet.Packet{
				Seq:     uint64(i),
				Kind:    packet.KindData,
				Payload: []byte(fmt.Sprintf("frame-%06d", i)),
			}
			if err := pw.WritePacket(p); err != nil {
				producerDone <- err
				return
			}
			if i%50 == 0 {
				time.Sleep(time.Millisecond) // keep the stream alive during splices
			}
		}
		producerDone <- upConn.Close()
	}()

	// --- the ControlManager reconfigures the live proxy -----------------------
	client, err := control.Dial(ctrlAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Let some packets flow through the null proxy, then build up the FEC
	// path one live splice at a time. The decoder goes in first (so it sees
	// every FEC group from its beginning — the paper's point about inserting
	// format-specific filters at frame boundaries), then the encoder, and
	// only then the lossy hop, so no frame is ever exposed to loss without
	// protection.
	time.Sleep(5 * time.Millisecond)
	for _, splice := range []struct {
		stage string
		pos   int
	}{{"fec-decode", 0}, {"fec-encode=6/4", 0}, {"wireless-hop", 1}} {
		if _, err := client.SessionInsert(1, "", splice.stage, splice.pos); err != nil {
			t.Fatal(err)
		}
	}
	sessions, err := client.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Chain != "fec-encode=6/4,wireless-hop,fec-decode" || len(sessions[0].Stages) != 3 {
		t.Fatalf("unexpected session state after splices: %+v", sessions)
	}

	if err := <-producerDone; err != nil {
		t.Fatal(err)
	}
	res := <-consumed
	if res.err != nil {
		t.Fatal(res.err)
	}

	// Every frame arrives exactly once. Frames sent before the FEC splice
	// travelled through the null proxy; frames after it survived a genuinely
	// lossy hop thanks to the decoder's reconstruction. A frame repaired from
	// parity is delivered as soon as its group is decodable, which is a few
	// positions later than its original slot (the receiving application — the
	// audio reassembler in the FEC examples — reorders by index), so the
	// check here is exactly-once delivery with bounded displacement rather
	// than strict global order.
	if len(res.payloads) != totalPackets {
		t.Fatalf("consumer received %d frames, want %d", len(res.payloads), totalPackets)
	}
	seen := make(map[string]int, totalPackets)
	for pos, payload := range res.payloads {
		var frame int
		if _, err := fmt.Sscanf(string(payload), "frame-%06d", &frame); err != nil {
			t.Fatalf("frame at position %d is corrupted: %q", pos, payload)
		}
		seen[string(payload)]++
		if displacement := pos - frame; displacement < -8 || displacement > 8 {
			t.Fatalf("frame %d arrived at position %d: displaced beyond one FEC group", frame, pos)
		}
	}
	for i := 0; i < totalPackets; i++ {
		want := fmt.Sprintf("frame-%06d", i)
		if seen[want] != 1 {
			t.Fatalf("frame %d delivered %d times, want exactly once", i, seen[want])
		}
	}
}

// TestStreamModeRateLimitIsLossless: in rapidproxy's stream mode, a producer
// far faster than a ratelimit stage is pushed back over TCP instead of losing
// frames, and the stream stays shaped to its end.
func TestStreamModeRateLimitIsLossless(t *testing.T) {
	const total, payloadSize = 2000, 128
	const rate = total * (packet.HeaderSize + payloadSize) * 3 // ~330ms of stream
	upstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upstreamLn.Close()
	downstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer downstreamLn.Close()

	consumed := make(chan []uint64, 1)
	go func() {
		conn, err := downstreamLn.Accept()
		if err != nil {
			consumed <- nil
			return
		}
		defer conn.Close()
		pr := packet.NewReader(conn)
		var seqs []uint64
		for {
			p, err := pr.ReadPacket()
			if err != nil {
				consumed <- seqs
				return
			}
			seqs = append(seqs, p.Seq)
		}
	}()

	chain := filter.NewChain("stream-ratelimit")
	proxyReady := make(chan error, 1)
	go func() {
		upConn, err := upstreamLn.Accept()
		if err != nil {
			proxyReady <- err
			return
		}
		downConn, err := net.Dial("tcp", downstreamLn.Addr().String())
		if err != nil {
			proxyReady <- err
			return
		}
		for _, s := range []filter.Stage{endpoint.NewFrameReader("upstream", upConn), endpoint.NewWriter("downstream", downConn)} {
			if err := chain.Append(s); err != nil {
				proxyReady <- err
				return
			}
		}
		plan, err := compose.Parse(fmt.Sprintf("ratelimit=%d", rate), compose.ModeChain)
		if err != nil {
			proxyReady <- err
			return
		}
		if _, err := compose.Attach(chain, compose.Default(), compose.Env{StreamID: 1}, compose.ModeChain, plan); err != nil {
			proxyReady <- err
			return
		}
		proxyReady <- chain.Start()
	}()

	upConn, err := net.Dial("tcp", upstreamLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-proxyReady; err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	pw := packet.NewWriter(upConn)
	for i := 0; i < total; i++ {
		if err := pw.WritePacket(&packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: make([]byte, payloadSize)}); err != nil {
			t.Fatal(err)
		}
	}
	upConn.Close()
	if err := chain.Wait(); err != nil {
		t.Fatal(err)
	}
	seqs := <-consumed
	elapsed := time.Since(start)
	if len(seqs) != total {
		t.Fatalf("downstream received %d frames, want all %d", len(seqs), total)
	}
	for i, seq := range seqs {
		if seq != uint64(i) {
			t.Fatalf("frame %d arrived as seq %d", i, seq)
		}
	}
	if elapsed < 200*time.Millisecond {
		t.Fatalf("the stream ended after %v, want ~330ms of shaping", elapsed)
	}
}
