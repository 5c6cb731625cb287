package stream_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"rapidware/internal/endpoint"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
	"rapidware/internal/stream"
)

// The tests below keep the guarantees the paper's pause/drain/reconnect
// protocol gave a live insertion, now that a splice is FrameChain.SetInterior
// on a proxy whose input is a Pipe: what a stage holds drains before it
// detaches, a splice waits out the frame in flight, and a write in flight
// loses nothing and is never split.

// syncBuffer is an io.Writer collecting a proxy's output for a test to poll.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startProxy starts a proxy reading a Pipe the test writes to, raw or framed,
// and writing into out. The test closes the returned writer to end the stream.
func startProxy(t *testing.T, framed bool, out io.Writer) (*stream.PipeWriter, *filter.Chain) {
	t.Helper()
	r, w := stream.Pipe()
	src := endpoint.NewReader("in", r)
	if framed {
		src = endpoint.NewFrameReader("in", r)
	}
	chain := filter.NewChain("proxy")
	for _, s := range []filter.Stage{src, endpoint.NewWriter("out", out)} {
		if err := chain.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := chain.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Close()
		chain.Wait()
	})
	return w, chain
}

// TestPauseDrainsBufferBeforeDetaching: a stage holding what it took is
// spliced out of a live proxy, and the splice returns only once what it held
// has reached the consumer, ahead of anything written after it.
func TestPauseDrainsBufferBeforeDetaching(t *testing.T) {
	out := &syncBuffer{}
	w, chain := startProxy(t, false, out)
	var held []*packet.Buf
	holding := make(chan struct{}, 1)
	buffering := filter.NewFrame("buffering", func(b *packet.Buf, emit func(*packet.Buf)) error {
		held = append(held, b)
		select {
		case holding <- struct{}{}:
		default:
		}
		return nil
	}, func(emit func(*packet.Buf)) error {
		for _, b := range held {
			emit(b)
		}
		held = nil
		return nil
	})
	if err := chain.SetInterior([]filter.Filter{buffering}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	<-holding
	if got := out.String(); got != "" {
		t.Fatalf("the buffering stage let %q through", got)
	}
	if err := chain.SetInterior(nil); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "buffered" {
		t.Fatalf("drained %q before detaching, want %q", got, "buffered")
	}
	if buffering.Running() {
		t.Fatal("stage still running after the splice took it out")
	}
	if _, err := w.Write([]byte("-after")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := chain.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "buffered-after" {
		t.Fatalf("consumer saw %q, want %q", got, "buffered-after")
	}
}

// TestPauseWaitsForTrackedHandoff pins the hand-off contract behind loss-free
// live splices: a splice issued while a stage is still working on a frame
// does not complete until the stage has handed that frame on.
func TestPauseWaitsForTrackedHandoff(t *testing.T) {
	out := &syncBuffer{}
	w, chain := startProxy(t, false, out)
	consumed, acknowledge := make(chan struct{}), make(chan struct{})
	ack := sync.OnceFunc(func() { close(acknowledge) })
	defer ack()
	var first sync.Once
	slow := filter.NewFrame("slow", func(b *packet.Buf, emit func(*packet.Buf)) error {
		first.Do(func() {
			close(consumed)
			<-acknowledge
		})
		emit(b)
		return nil
	}, nil)
	if err := chain.SetInterior([]filter.Filter{slow}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("chunk")); err != nil {
		t.Fatal(err)
	}
	<-consumed

	spliced := make(chan error, 1)
	go func() { spliced <- chain.SetInterior(nil) }()
	// The stage has the frame but has not handed it on: the splice must
	// still be waiting.
	select {
	case <-spliced:
		t.Fatal("the splice completed while a stage still held the hand-off")
	case <-time.After(20 * time.Millisecond):
	}
	ack()
	select {
	case err := <-spliced:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("the splice never completed after the stage handed the frame on")
	}
	if got := out.String(); got != "chunk" {
		t.Fatalf("consumer saw %q when the splice completed, want %q", got, "chunk")
	}
	if slow.Running() {
		t.Fatal("stage still running after the splice took it out")
	}
}

// TestMidWritePauseLosesNothing splices a stage in while one large write is
// in flight, blocked on a slow consumer: the bytes before the splice and after
// it arrive in order, with nothing lost or duplicated. The consumer keeps
// reading, slowly, while the splice is issued: the pump writes to its sink
// under the chain's lock, so a splice issued while nobody drains the output
// would wait on that blocked write for ever.
func TestMidWritePauseLosesNothing(t *testing.T) {
	outR, outW := stream.Pipe()
	defer outR.Close() // a test that fails early must not leave the pump blocked
	w, chain := startProxy(t, false, outW)
	payload := make([]byte, 1<<20) // far more than both pipes and the pump hold
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	writeDone := make(chan error, 1)
	go func() {
		_, err := w.Write(payload)
		w.Close()
		writeDone <- err
	}()

	first := make([]byte, 1000)
	if _, err := io.ReadFull(outR, first); err != nil {
		t.Fatal(err)
	}
	select {
	case <-writeDone:
		t.Fatal("the write finished before the consumer read past its first bytes")
	default:
	}
	spliced := make(chan struct{})
	type result struct {
		rest []byte
		err  error
	}
	consumed := make(chan result, 1)
	go func() {
		// Slow until the splice is in, so most of the payload is still to
		// come when it lands; then the rest at full speed.
		var rest []byte
		chunk := make([]byte, 1024)
		for {
			select {
			case <-spliced:
				tail, err := io.ReadAll(outR)
				consumed <- result{append(rest, tail...), err}
				return
			default:
			}
			n, err := outR.Read(chunk)
			rest = append(rest, chunk[:n]...)
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				consumed <- result{rest, err}
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	counting := filter.NewCounting("inserted")
	if err := chain.SetInterior([]filter.Filter{counting}); err != nil {
		t.Fatal(err)
	}
	close(spliced)
	res := <-consumed
	rest, err := res.rest, res.err
	if err != nil {
		t.Fatal(err)
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	if err := chain.Wait(); err != nil {
		t.Fatal(err)
	}
	if reassembled := append(first, rest...); !bytes.Equal(reassembled, payload) {
		t.Fatalf("data corrupted across the splice: got %d bytes, want %d", len(reassembled), len(payload))
	}
	if n := counting.Bytes(); n == 0 || n >= uint64(len(payload)) {
		t.Fatalf("the stage spliced in mid-write counted %d of %d bytes", n, len(payload))
	}
}

// TestSingleWriteNeverSplitAcrossPause: a frame written in one Write while a
// splice happens passes whole through the stage it leaves or the one it
// joins, never partly through each. This is the frame-boundary guarantee that
// lets packet-oriented filters be inserted on a live stream.
func TestSingleWriteNeverSplitAcrossPause(t *testing.T) {
	const frames = 40
	frame, err := packet.Marshal(&packet.Packet{Kind: packet.KindData, Payload: bytes.Repeat([]byte{0x7e}, 300)})
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(frame))
	for trial := 0; trial < 20; trial++ {
		out := &syncBuffer{}
		w, chain := startProxy(t, true, out)
		before, after := filter.NewCounting("before"), filter.NewCounting("after")
		if err := chain.SetInterior([]filter.Filter{before}); err != nil {
			t.Fatal(err)
		}
		go func() {
			for i := 0; i < frames; i++ {
				if _, err := w.Write(frame); err != nil {
					t.Errorf("write: %v", err)
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			w.Close()
		}()
		time.Sleep(time.Millisecond) // let the writes get in flight
		if err := chain.SetInterior([]filter.Filter{after}); err != nil {
			t.Fatal(err)
		}
		if err := chain.Wait(); err != nil {
			t.Fatal(err)
		}
		if before.Bytes()%size != 0 || after.Bytes()%size != 0 || before.Bytes()+after.Bytes() != frames*size {
			t.Fatalf("trial %d: the stages saw %d and %d bytes of %d-byte frames; a frame was split by the splice",
				trial, before.Bytes(), after.Bytes(), size)
		}
		if got := out.String(); got != string(bytes.Repeat(frame, frames)) {
			t.Fatalf("trial %d: consumer saw %d bytes, want %d", trial, len(got), frames*size)
		}
	}
}

// TestFilterInsertionSequenceFromPaper reproduces the ControlThread.add()
// sequence of §4 on today's proxy: a producer writes an unbroken sequence of
// numbered lines into a pipe feeding a null proxy, a filter is spliced into
// the middle of the running stream, and the consumer must observe every line
// exactly once, in order. The lines are a raw byte stream (see package
// endpoint), which the spliced counting stage accepts.
func TestFilterInsertionSequenceFromPaper(t *testing.T) {
	const totalLines = 2000
	producerR, producerW := stream.Pipe()
	consumerR, consumerW := stream.Pipe()
	chain := filter.NewChain("paper")
	for _, s := range []filter.Stage{endpoint.NewReader("in", producerR), endpoint.NewWriter("out", consumerW)} {
		if err := chain.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := chain.Start(); err != nil {
		t.Fatal(err)
	}

	consumed := make(chan []byte, 1)
	go func() {
		out, _ := io.ReadAll(consumerR) // ends at the EOF the chain's end delivers
		consumed <- out
	}()
	// The producer waits at the halfway line for the splice, so it lands in
	// the middle of the stream however the goroutines are scheduled.
	halfway, spliced := make(chan struct{}), make(chan struct{})
	go func() {
		for i := 0; i < totalLines; i++ {
			if i == totalLines/2 {
				close(halfway)
				<-spliced
			}
			if _, err := fmt.Fprintf(producerW, "line-%06d\n", i); err != nil {
				t.Errorf("producer: %v", err)
				break
			}
		}
		producerW.Close()
	}()

	<-halfway
	counting := filter.NewCounting("inserted")
	if err := chain.SetInterior([]filter.Filter{counting}); err != nil {
		t.Fatal(err)
	}
	close(spliced)
	if err := chain.Wait(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(<-consumed, []byte("\n")), []byte("\n"))
	if len(lines) != totalLines {
		t.Fatalf("consumer saw %d lines, want %d", len(lines), totalLines)
	}
	for i, line := range lines {
		if want := fmt.Sprintf("line-%06d", i); string(line) != want {
			t.Fatalf("line %d = %q, want %q (stream reordered or corrupted)", i, line, want)
		}
	}
	if counting.Bytes() == 0 {
		t.Fatal("the inserted filter saw none of the stream")
	}
}
