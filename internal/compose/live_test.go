package compose

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// byteSource feeds payload into the chain in small paced buffers — a raw
// stream, which the chunk kinds these tests compose accept — then holds the
// stream open until the chain stops, so live recompositions keep finding a
// running chain.
type byteSource struct {
	payload []byte
	off     int
	closed  chan struct{}
	once    sync.Once
}

func newByteSource(payload []byte) *byteSource {
	return &byteSource{payload: payload, closed: make(chan struct{})}
}

func (s *byteSource) Name() string { return "src" }

func (s *byteSource) ReadFrame() (*packet.Buf, error) {
	if s.off == len(s.payload) {
		<-s.closed
		return nil, io.EOF
	}
	n := min(256, len(s.payload)-s.off)
	b := packet.GetBuf(n)
	copy(b.B, s.payload[s.off:])
	s.off += n
	time.Sleep(50 * time.Microsecond)
	return b, nil
}

func (s *byteSource) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// capture collects whatever reaches the far end of the chain.
type capture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *capture) Name() string { return "dst" }

func (c *capture) WriteFrame(b *packet.Buf) error {
	c.mu.Lock()
	c.buf.Write(b.B)
	c.mu.Unlock()
	b.Release()
	return nil
}

func (c *capture) Close() error { return nil }

func (c *capture) wait(t *testing.T, want int) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := c.buf.Len()
		c.mu.Unlock()
		if n >= want {
			c.mu.Lock()
			defer c.mu.Unlock()
			return append([]byte(nil), c.buf.Bytes()...)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("capture got %d bytes, want %d", c.buf.Len(), want)
	return nil
}

// newLiveChain builds a started endpoint pair with the given plan attached.
func newLiveChain(t *testing.T, payload []byte, mode Mode, spec string) (*Live, *capture) {
	t.Helper()
	chain := filter.NewChain("live-test")
	dst := &capture{}
	if err := chain.Append(newByteSource(payload)); err != nil {
		t.Fatal(err)
	}
	if err := chain.Append(dst); err != nil {
		t.Fatal(err)
	}
	plan, err := Parse(spec, mode)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Attach(chain, Default(), Env{StreamID: 7}, mode, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { chain.Stop() })
	return live, dst
}

func TestLiveAttachBuildsPlan(t *testing.T) {
	payload := bytes.Repeat([]byte("abc"), 1000)
	live, dst := newLiveChain(t, payload, ModeChain, "counting,checksum")
	if got := live.String(); got != "counting,checksum" {
		t.Fatalf("live plan = %q", got)
	}
	if !bytes.Equal(dst.wait(t, len(payload)), payload) {
		t.Fatal("payload corrupted through attached plan")
	}
	stats := live.StageStats()
	if len(stats) != 2 || stats[0].Kind != "counting" || !stats[0].Active {
		t.Fatalf("stage stats = %+v", stats)
	}
	if stats[0].InBytes < uint64(len(payload)) || stats[0].OutBytes < uint64(len(payload)) {
		t.Fatalf("stage IO counters = %+v", stats[0])
	}
}

func TestLiveRecomposeReusesMatchingInstances(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 1<<18)
	live, dst := newLiveChain(t, payload, ModeChain, "counting")
	dst.wait(t, 512)

	before := live.Instance("counting")
	if before == nil {
		t.Fatal("no counting instance")
	}
	target, err := Parse("checksum,counting,null", ModeChain)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatalf("Recompose: %v", err)
	}
	if live.String() != "checksum,counting,null" {
		t.Fatalf("plan after recompose = %q", live.String())
	}
	if live.Instance("counting") != before {
		t.Fatal("matching stage did not keep its instance across recompose")
	}
	// Back to a single stage: the counting instance survives again, the rest
	// are retired.
	chk := live.Instance("checksum")
	target, err = Parse("counting", ModeChain)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatal(err)
	}
	if live.Instance("counting") != before {
		t.Fatal("instance lost on shrink")
	}
	if chk.Running() {
		t.Fatal("removed stage still running")
	}
	if cf, ok := before.(*filter.CountingFilter); !ok || cf.Bytes() == 0 {
		t.Fatal("kept instance lost its counters")
	}
}

func TestLiveRecomposeRejectsInvalidPlan(t *testing.T) {
	live, _ := newLiveChain(t, []byte("x"), ModeChain, "null")
	bad := Plan{Stages: []Stage{{Kind: KindFECAdapt}}}
	if err := live.Recompose(bad); err == nil {
		t.Fatal("chain-mode live accepted a marker stage")
	}
	if live.String() != "null" {
		t.Fatalf("failed recompose mutated the plan: %q", live.String())
	}
}

func TestLivePlanEditOperations(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 1<<16)
	live, dst := newLiveChain(t, payload, ModeChain, "counting")
	// Single-stage edits are plan rewrites: derive the target from the
	// current plan and recompose to it.
	edit := func(op func(Plan) (Plan, error), want string) {
		t.Helper()
		target, err := op(live.Plan())
		if err != nil {
			t.Fatal(err)
		}
		if err := live.Recompose(target); err != nil {
			t.Fatal(err)
		}
		if live.String() != want {
			t.Fatalf("plan = %q, want %q", live.String(), want)
		}
	}
	counting := live.Instance("counting")
	edit(func(p Plan) (Plan, error) { return p.WithInsert(1, Stage{Kind: "checksum"}) }, "counting,checksum")
	edit(func(p Plan) (Plan, error) { return p.WithMove(1, 0) }, "checksum,counting")
	if live.Instance("counting") != counting {
		t.Fatal("a moved stage lost its live instance")
	}
	edit(func(p Plan) (Plan, error) { return p.WithRemove(p.Index("checksum")) }, "counting")
	edit(func(p Plan) (Plan, error) { return p.WithRemove(0) }, "")
	if !bytes.Equal(dst.wait(t, len(payload)), payload) {
		t.Fatal("payload corrupted across plan edits")
	}
}

func TestLiveMarkerActivateDeactivate(t *testing.T) {
	payload := bytes.Repeat([]byte("m"), 1<<16)
	live, dst := newLiveChain(t, payload, ModeBranch, "fec-adapt,counting")
	if live.Instance(KindFECAdapt) != nil {
		t.Fatal("marker active before activation")
	}
	if live.Plan().Index(KindFECAdapt) != 0 {
		t.Fatal("marker not found")
	}
	stats := live.StageStats()
	if len(stats) != 2 || stats[0].Active || stats[0].Name != "" {
		t.Fatalf("idle marker stats = %+v", stats[0])
	}
	enc := filter.NewNull("managed-encoder")
	if err := live.Activate(KindFECAdapt, enc); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if live.Instance(KindFECAdapt) != enc || !enc.Running() {
		t.Fatal("activated instance not live")
	}
	if err := live.Activate(KindFECAdapt, filter.NewNull("second")); !errors.Is(err, ErrMarkerActive) {
		t.Fatalf("double activate = %v, want ErrMarkerActive", err)
	}
	// A recompose that keeps the marker keeps the active instance.
	target, err := Parse("counting,fec-adapt", ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatal(err)
	}
	if live.Instance(KindFECAdapt) != enc {
		t.Fatal("active marker instance lost across recompose")
	}
	removed, err := live.Deactivate(KindFECAdapt)
	if err != nil || !removed {
		t.Fatalf("Deactivate = %v/%v", removed, err)
	}
	if enc.Running() {
		t.Fatal("deactivated instance still running")
	}
	if removed, err := live.Deactivate(KindFECAdapt); err != nil || removed {
		t.Fatalf("second Deactivate = %v/%v, want no-op", removed, err)
	}
	// Recomposing the marker away removes the splice point entirely.
	target, err = Parse("counting", ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatal(err)
	}
	if err := live.Activate(KindFECAdapt, filter.NewNull("x")); !errors.Is(err, ErrNoStage) {
		t.Fatalf("Activate without marker = %v, want ErrNoStage", err)
	}
	if !bytes.Equal(dst.wait(t, len(payload)), payload) {
		t.Fatal("payload corrupted across marker operations")
	}
}
