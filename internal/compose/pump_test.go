package compose

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rapidware/internal/endpoint"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// Every stage body runs on one executor, filter.FrameChain, which a stream
// proxy (filter.Chain) feeds from a byte stream. The tests below hold the two
// entry points to the same answer: the same seeded frame sequence through the
// same plan must come out byte-identical whether each frame was handed to the
// FrameChain directly or written as a byte stream into a framed reader and
// pumped — however the stream's writes and reads happen to be chunked. The
// timed stages read a frozen clock, so nothing they hold falls due while the
// stream flows. Direct frames then leave on the FrameChain's closing flush;
// the pumped stream's clock jumps an hour ahead once its source has ended,
// and they leave on the timer the pump waits out, in the same order.

// diffArgs supplies an argument for every registered kind that needs one. A
// kind registered without an entry here fails canonicalization below, which is
// the reminder to add it.
var diffArgs = map[string]string{
	"delay":      "1ms",
	"ratelimit":  "100000000",
	"jitter":     "1",
	"replay":     "8",
	"fec-encode": "6/4",
	"transcode":  "2",
	"thin":       "3",
	"compress":   "6",
}

// diffFrames returns a seeded sequence of marshaled frames: mostly data with
// even-length payloads of varying size (the audio stages want whole PCM
// frames), with a few parity and control frames mixed in, since every stage
// must pass those through.
func diffFrames(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		p := &packet.Packet{Seq: uint64(i), StreamID: 7, Kind: packet.KindData}
		switch {
		case i%17 == 11:
			p.Kind = packet.KindControl
		case i%23 == 7:
			p.Kind = packet.KindParity
		}
		p.Payload = make([]byte, 2*(1+rng.Intn(300)))
		rng.Read(p.Payload)
		if i%5 == 0 {
			// Compressible payloads, so compress really shrinks something.
			for j := range p.Payload {
				p.Payload[j] = byte(j / 16)
			}
		}
		frame, err := packet.Marshal(p)
		if err != nil {
			panic(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// frozen is the clock every stage reads in these tests.
func frozen() time.Time { return time.Unix(1e9, 0) }

// thawingClock is frozen until thaw, then runs from an hour past it.
type thawingClock struct{ thawedAt atomic.Pointer[time.Time] }

func (c *thawingClock) now() time.Time {
	if at := c.thawedAt.Load(); at != nil {
		return frozen().Add(time.Hour + time.Since(*at))
	}
	return frozen()
}

func (c *thawingClock) thaw() {
	now := time.Now()
	c.thawedAt.Store(&now)
}

// eofReader calls atEOF when its reader returns io.EOF.
type eofReader struct {
	io.Reader
	atEOF func()
}

func (r eofReader) Read(p []byte) (int, error) {
	n, err := r.Reader.Read(p)
	if err == io.EOF {
		r.atEOF()
	}
	return n, err
}

// buildPlan instantiates fresh stage instances for a spec on the given clock.
func buildPlan(t *testing.T, spec string, clock func() time.Time) []filter.Filter {
	t.Helper()
	plan, err := Parse(spec, ModeChain)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	stages := make([]filter.Filter, 0, plan.Len())
	for _, st := range plan.Stages {
		f, err := Default().Build(Env{StreamID: 7}, st)
		if err != nil {
			t.Fatalf("build %s: %v", st, err)
		}
		f.(interface{ SetClock(func() time.Time) }).SetClock(clock)
		stages = append(stages, f)
	}
	return stages
}

// runFrames hands frames to a FrameChain running spec and returns the
// concatenated output, end-of-stream flush included.
func runFrames(t *testing.T, spec string, frames [][]byte) []byte {
	t.Helper()
	var out bytes.Buffer
	fc := filter.NewFrameChain(func(b *packet.Buf) {
		out.Write(b.B)
		b.Release()
	})
	if err := fc.SetInterior(buildPlan(t, spec, frozen)); err != nil {
		t.Fatalf("frame executor rejected %q: %v", spec, err)
	}
	for _, f := range frames {
		b := packet.GetFrameBuf(len(f))
		copy(b.B, f)
		if err := fc.Process(b); err != nil {
			t.Fatalf("%q: frame executor: %v", spec, err)
		}
	}
	if err := fc.Close(); err != nil {
		t.Fatalf("%q: flush: %v", spec, err)
	}
	return out.Bytes()
}

// chunking is one cell of the slow-writer/fast-reader matrix the pumped side
// is fed through: the producer writes the byte stream writeSize bytes at a
// time (0: one frame per write), pausing every pauseEvery writes, and the
// consumer reads the proxy's output readSize bytes at a time.
type chunking struct {
	writeSize, readSize, pauseEvery int
}

var diffChunkings = []chunking{
	{writeSize: 0, readSize: 64 << 10},
	{writeSize: 1024, readSize: 5 * 1024, pauseEvery: 16},
	{writeSize: 88, readSize: 1099},
	{writeSize: 1024, readSize: 12},
	{writeSize: 7, readSize: 4096, pauseEvery: 512},
}

// runPumped writes the same frames as one byte stream, in the given chunking,
// into a filter.Chain reading it framed and running spec, and returns
// everything that reached the far end once the stream was done.
func runPumped(t *testing.T, spec string, frames [][]byte, ch chunking) []byte {
	t.Helper()
	writes := frames
	if ch.writeSize > 0 {
		writes = nil
		all := bytes.Join(frames, nil)
		for off := 0; off < len(all); off += ch.writeSize {
			writes = append(writes, all[off:min(off+ch.writeSize, len(all))])
		}
	}
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	go func() {
		for i, w := range writes {
			if _, err := inW.Write(w); err != nil {
				return
			}
			if ch.pauseEvery > 0 && i%ch.pauseEvery == ch.pauseEvery-1 {
				time.Sleep(50 * time.Microsecond)
			}
		}
		inW.Close() // the end of the stream thaws the clock
	}()
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
	clock := &thawingClock{}
	chain := filter.NewChain("diff")
	stages := []filter.Stage{endpoint.NewFrameReader("in", eofReader{inR, clock.thaw})}
	for _, f := range buildPlan(t, spec, clock.now) {
		stages = append(stages, f)
	}
	for _, s := range append(stages, endpoint.NewWriter("out", outW)) {
		if err := chain.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := chain.Start(); err != nil {
		t.Fatal(err)
	}
	if err := chain.Wait(); err != nil {
		t.Fatalf("%q %+v: pumped stream: %v", spec, ch, err)
	}
	return <-got
}

// splitFrames cuts a byte stream back into frames.
func splitFrames(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(stream) > 0 {
		_, n, err := packet.Unmarshal(stream)
		if err != nil {
			t.Fatalf("re-framing: %v", err)
		}
		frames = append(frames, stream[:n])
		stream = stream[n:]
	}
	return frames
}

// diffInput is the input a plan is differentially tested on. Stages that only
// accept what their counterpart produced get that: decompress is fed
// compressed payloads, and fec-decode an encoded stream with one erasure per
// group plus the hostile shares a decoder must shrug off (a duplicate, and a
// share whose header disagrees with its group).
func diffInput(t *testing.T, spec string, plain [][]byte) [][]byte {
	t.Helper()
	switch first, _, _ := strings.Cut(spec, ","); first {
	case "decompress":
		return splitFrames(t, runFrames(t, "compress=6", plain))
	case "fec-decode":
		encoded := splitFrames(t, runFrames(t, "fec-encode=6/4", plain))
		var in [][]byte
		for i, f := range encoded {
			p, _, err := packet.Unmarshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if p.IsFEC() && int(p.Index) == int(p.Group)%4 {
				continue // erased: the group's parity must rebuild it
			}
			in = append(in, f)
			if i%31 == 5 {
				in = append(in, f) // duplicate share
			}
			if i%37 == 9 && p.IsFEC() {
				p.K, p.N = 2, 3
				p.Index %= 3
				bad, _ := packet.Marshal(p)
				in = append(in, bad) // disagrees with its group's code
			}
		}
		return in
	}
	return plain
}

func testDifferential(t *testing.T, spec string) {
	frames := diffInput(t, spec, diffFrames(42, 200))
	want := runFrames(t, spec, frames)
	if len(want) == 0 {
		t.Fatalf("%q produced no output at all", spec)
	}
	for _, ch := range diffChunkings {
		if got := runPumped(t, spec, frames, ch); !bytes.Equal(got, want) {
			t.Errorf("%q: pumped stream (%+v) produced %d bytes, direct frames %d; outputs differ",
				spec, ch, len(got), len(want))
		}
	}
}

// TestDifferentialEveryKind runs each registered kind on its own both ways.
func TestDifferentialEveryKind(t *testing.T) {
	for _, kind := range Default().Kinds() {
		if d, _ := Default().Lookup(kind); d.Marker {
			continue // no instance of its own
		}
		st, err := Default().CanonStage(kind, diffArgs[kind])
		if err != nil {
			t.Fatalf("kind %q needs an argument in diffArgs: %v", kind, err)
		}
		t.Run(kind, func(t *testing.T) { testDifferential(t, st.String()) })
	}
}

// TestDifferentialPlans does the same for multi-stage plans, where one
// stage's output framing is the next one's input.
func TestDifferentialPlans(t *testing.T) {
	for _, spec := range diffPlans {
		t.Run(spec, func(t *testing.T) { testDifferential(t, spec) })
	}
}

// diffPlans are the multi-stage plans TestDifferentialPlans and
// TestGoldenOutput run.
var diffPlans = []string{
	"counting,checksum,null,null",
	"fec-encode=6/4,fec-decode",
	"fec-decode,fec-encode=6/4",
	"compress=6,decompress",
	"thin=3,fec-encode=5/3",
	"arq,replay=8,counting",
	"transcode=2,mono,compress",
	"null,fec-encode=12/8,checksum,thin=2",
	"jitter=1,delay=1ms,ratelimit=100000000,counting",
}
