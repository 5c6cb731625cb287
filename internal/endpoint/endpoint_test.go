package endpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// closeRecorder wraps a buffer and records whether Close was called.
type closeRecorder struct {
	bytes.Buffer
	mu     sync.Mutex
	closed bool
}

func (c *closeRecorder) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *closeRecorder) wasClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// runChain assembles stages into a chain, runs its stream to the end and
// returns the stream's error.
func runChain(t *testing.T, stages ...filter.Stage) error {
	t.Helper()
	c := filter.NewChain("test")
	for _, s := range stages {
		if err := c.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c.Wait()
}

func TestReaderPumpsSourceIntoChain(t *testing.T) {
	payload := bytes.Repeat([]byte("wired data "), 5000)
	in := NewReader("", bytes.NewReader(payload))
	var got []byte
	bufs := 0
	for {
		b, err := in.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b.B...)
		bufs++
		b.Release()
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reader endpoint corrupted data")
	}
	if bufs < 2 {
		t.Fatalf("a %d-byte stream arrived in %d buffers, want one per read", len(payload), bufs)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterPumpsChainToDestination(t *testing.T) {
	dst := &closeRecorder{}
	payload := []byte("to the wireless side")
	err := runChain(t, NewReader("", bytes.NewReader(payload)), NewWriter("", dst))
	if err != nil {
		t.Fatal(err)
	}
	if got := dst.String(); got != string(payload) {
		t.Fatalf("destination got %q, want %q", got, payload)
	}
	if !dst.wasClosed() {
		t.Fatal("closable destination was not closed at the end of the stream")
	}
}

func TestDefaultNames(t *testing.T) {
	for _, c := range []struct {
		stage filter.Stage
		want  string
	}{
		{NewReader("", bytes.NewReader(nil)), "endpoint-reader"},
		{NewFrameReader("", bytes.NewReader(nil)), "frame-reader"},
		{NewWriter("", io.Discard), "endpoint-writer"},
		{NewPacketSource("", nil), "packet-source"},
		{NewPacketSink("", nil), "packet-sink"},
		{NewUDPSource("", nil), "udp-source"},
		{NewUDPSink("", 0, nil), "udp-sink"},
	} {
		if got := c.stage.Name(); got != c.want {
			t.Fatalf("default name %q, want %q", got, c.want)
		}
	}
}

func TestNullProxyOverTCP(t *testing.T) {
	// The paper's "null proxy": data entering on one socket leaves unchanged
	// on another. Build it from two endpoints and an empty chain over real
	// loopback TCP connections.
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

	// Downstream consumer.
	type result struct {
		data []byte
		err  error
	}
	consumed := make(chan result, 1)
	go func() {
		conn, err := downstreamLn.Accept()
		if err != nil {
			consumed <- result{nil, err}
			return
		}
		defer conn.Close()
		data, err := io.ReadAll(conn)
		consumed <- result{data, err}
	}()

	// The proxy: accept from upstream listener, dial the downstream address.
	proxyReady := make(chan *filter.Chain, 1)
	go func() {
		conn, err := upstreamLn.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		inEP := NewReader("in", conn)
		outConn, err := net.Dial("tcp", downstreamLn.Addr().String())
		if err != nil {
			t.Errorf("dial downstream: %v", err)
			return
		}
		outEP := NewWriter("out", outConn)
		chain := filter.NewChain("null-proxy")
		chain.Append(inEP)
		chain.Append(outEP)
		if err := chain.Start(); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		proxyReady <- chain
	}()

	// Upstream producer.
	payload := bytes.Repeat([]byte{0x5a, 0xa5, 0x00, 0xff}, 8192)
	upConn, err := net.Dial("tcp", upstreamLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upConn.Write(payload); err != nil {
		t.Fatal(err)
	}
	upConn.Close()

	select {
	case res := <-consumed:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if !bytes.Equal(res.data, payload) {
			t.Fatalf("null proxy corrupted data: got %d bytes, want %d", len(res.data), len(payload))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("downstream never received the payload")
	}
	chain := <-proxyReady
	chain.Stop()
}

// packetGen returns a generator of total data packets numbered from 0, and
// the count of packets it has handed out.
func packetGen(total int) (next func() (*packet.Packet, error), handed *int) {
	i := 0
	return func() (*packet.Packet, error) {
		if i >= total {
			return nil, io.EOF
		}
		p := &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}}
		i++
		return p, nil
	}, &i
}

func TestPacketSourceAndSink(t *testing.T) {
	const total = 50
	var seqs []uint64
	sink := NewPacketSink("collect", func(p *packet.Packet) error {
		seqs = append(seqs, p.Seq) // the chain's one goroutine runs the sink
		return nil
	})
	gen, _ := packetGen(total)
	if err := runChain(t, NewPacketSource("gen", gen), sink); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != total {
		t.Fatalf("the sink got %d packets, want %d", len(seqs), total)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("packet %d has seq %d (reordered)", i, s)
		}
	}
}

func TestPacketSourcePropagatesGeneratorError(t *testing.T) {
	boom := errors.New("generator failed")
	src := NewPacketSource("gen", func() (*packet.Packet, error) { return nil, boom })
	if err := runChain(t, src, NewPacketSink("", nil)); !errors.Is(err, boom) {
		t.Fatalf("stream error = %v, want boom", err)
	}
}

func TestPacketSinkHandlerErrorStopsPump(t *testing.T) {
	boom := errors.New("handler failed")
	gen, handed := packetGen(1000)
	sink := NewPacketSink("s", func(*packet.Packet) error { return boom })
	if err := runChain(t, NewPacketSource("gen", gen), sink); !errors.Is(err, boom) {
		t.Fatalf("stream error = %v, want boom", err)
	}
	if *handed != 1 {
		t.Fatalf("the pump read %d frames, want it stopped after the refused one", *handed)
	}
}

func TestPacketSinkNilHandlerCounts(t *testing.T) {
	gen, _ := packetGen(7)
	counting := filter.NewCounting("")
	if err := runChain(t, NewPacketSource("gen", gen), counting, NewPacketSink("discard", nil)); err != nil {
		t.Fatal(err)
	}
	if counting.Chunks() != 7 {
		t.Fatalf("the sink took %d packets, want 7", counting.Chunks())
	}
}

// TestUDPSourceToSinkReservesHeadroom: frames handed over whole reach the
// send function with the requested headroom in front of them.
func TestUDPSourceToSinkReservesHeadroom(t *testing.T) {
	frames := make(chan *packet.Buf, 3)
	for seq := uint64(0); seq < 3; seq++ {
		f, err := packet.Marshal(&packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte("udp")})
		if err != nil {
			t.Fatal(err)
		}
		b := packet.GetBuf(len(f))
		copy(b.B, f)
		frames <- b
	}
	close(frames)
	src := NewUDPSource("", func() (*packet.Buf, error) {
		if b, ok := <-frames; ok {
			return b, nil
		}
		return nil, io.EOF
	})
	var seqs []uint64
	sink := NewUDPSink("", packet.SessionIDSize, func(b *packet.Buf) error {
		seqs = append(seqs, packet.FrameSeq(b.B[packet.SessionIDSize:]))
		b.Release()
		return nil
	})
	if err := runChain(t, src, sink); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seqs) != "[0 1 2]" {
		t.Fatalf("sent %v, want [0 1 2]", seqs)
	}
}

// chunking is one cell of the slow-writer/fast-reader matrix: the producer
// writes the byte stream writeSize bytes at a time (0: one frame per write),
// pausing after every pauseEvery writes, and the consumer reads the proxy's
// output readSize bytes at a time.
type chunking struct {
	writeSize, pauseEvery, readSize int
}

var pumpChunkings = []chunking{
	{writeSize: 0, pauseEvery: 8, readSize: 64 << 10},
	{writeSize: 1024, pauseEvery: 4, readSize: 5 * 1024},
	{writeSize: 88, pauseEvery: 16, readSize: 1099},
	{writeSize: 1024, pauseEvery: 4, readSize: 12},
	{writeSize: 7, pauseEvery: 256, readSize: 4096},
}

// TestPumpChunkMatrix streams through a chain between in-memory pipes, for
// both ways input enters it (see the package doc), across the chunk matrix,
// and splices twice while the stream flows: a counting and a checksum stage
// in at the halfway mark, the counting stage out again at three quarters.
// Nothing may be lost, duplicated or reordered, and framed input must reach
// the stages as whole frames whatever the producer's write size.
func TestPumpChunkMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var frames [][]byte
	for seq := 0; seq < 400; seq++ {
		payload := make([]byte, 1+rng.Intn(300))
		rng.Read(payload)
		f, err := packet.Marshal(&packet.Packet{Seq: uint64(seq), Kind: packet.KindData, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	stream := bytes.Join(frames, nil)
	for _, framed := range []bool{true, false} {
		for _, ch := range pumpChunkings {
			name := fmt.Sprintf("framed=%v/write=%d/read=%d", framed, ch.writeSize, ch.readSize)
			t.Run(name, func(t *testing.T) { testPump(t, framed, frames, stream, ch) })
		}
	}
}

func testPump(t *testing.T, framed bool, frames [][]byte, stream []byte, ch chunking) {
	writes := frames
	if ch.writeSize > 0 {
		writes = nil
		for off := 0; off < len(stream); off += ch.writeSize {
			writes = append(writes, stream[off:min(off+ch.writeSize, len(stream))])
		}
	}
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	dst := &writeCounter{PipeWriter: outW}
	var src *Reader
	if framed {
		src = NewFrameReader("in", inR)
	} else {
		src = NewReader("in", inR)
	}
	chain := filter.NewChain("pump")
	for _, s := range []filter.Stage{src, NewWriter("out", dst)} {
		if err := chain.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := chain.Start(); err != nil {
		t.Fatal(err)
	}

	// The slow writer. At the halfway and three-quarter marks it waits for a
	// splice, which so lands at a known point of the stream — for a write
	// size that is not a frame's, with part of a frame already read.
	marks := map[int]chan struct{}{len(writes) / 2: make(chan struct{}), len(writes) * 3 / 4: make(chan struct{})}
	spliced := make(chan struct{})
	go func() {
		for i, w := range writes {
			if mark, ok := marks[i]; ok {
				close(mark)
				<-spliced
			}
			if _, err := inW.Write(w); err != nil {
				t.Errorf("write: %v", err)
				break
			}
			if i%ch.pauseEvery == ch.pauseEvery-1 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		inW.Close()
	}()
	// The fast reader.
	got := make(chan []byte, 1)
	go func() {
		var out bytes.Buffer
		buf := make([]byte, ch.readSize)
		for {
			n, err := outR.Read(buf)
			out.Write(buf[:n])
			if err != nil {
				got <- out.Bytes()
				return
			}
		}
	}()

	counting, checksum := filter.NewCounting("counting"), filter.NewChecksum("checksum")
	<-marks[len(writes)/2]
	if err := chain.SetInterior([]filter.Filter{counting, checksum}); err != nil {
		t.Fatal(err)
	}
	spliced <- struct{}{}
	<-marks[len(writes)*3/4]
	if err := chain.SetInterior([]filter.Filter{checksum}); err != nil {
		t.Fatal(err)
	}
	spliced <- struct{}{}
	if err := chain.Wait(); err != nil {
		t.Fatal(err)
	}
	if out := <-got; !bytes.Equal(out, stream) {
		t.Fatalf("the proxy delivered %d bytes, want the %d written, unchanged", len(out), len(stream))
	}
	if counting.Bytes() == 0 {
		t.Fatal("the spliced stage saw none of the stream")
	}
	if framed {
		if dst.writes != len(frames) {
			t.Fatalf("the reader cut the stream into %d frames, want %d", dst.writes, len(frames))
		}
		// Both stages joined at the first splice, so the checksum stage saw
		// the stream's tail from there and the counting stage the part of it
		// up to the second splice: both splices landed between two frames,
		// and each buffer the counting stage took was one whole frame.
		_, tail := checksum.Sum()
		seen := stream[len(stream)-int(tail):][:counting.Bytes()]
		if n := countFrames(t, seen); uint64(n) != counting.Chunks() {
			t.Fatalf("the counting stage took %d buffers holding %d frames", counting.Chunks(), n)
		}
	}
}

// writeCounter counts the writes it passes on: one per frame out of a chain's
// Writer. It closes the pipe it wraps, so the consumer sees the end.
type writeCounter struct {
	*io.PipeWriter
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.PipeWriter.Write(p)
}

// countFrames returns how many whole frames b holds, failing the test if it
// does not start and end on frame boundaries.
func countFrames(t *testing.T, b []byte) int {
	t.Helper()
	n := 0
	for len(b) > 0 {
		_, size, err := packet.Unmarshal(b)
		if err != nil {
			t.Fatalf("not on a frame boundary: %v", err)
		}
		b = b[size:]
		n++
	}
	return n
}
