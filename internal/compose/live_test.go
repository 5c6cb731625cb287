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
	"rapidware/internal/race"
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
		t.Fatal("marker occupied before activation")
	}
	if live.Plan().Index(KindFECAdapt) != 0 {
		t.Fatal("marker not found")
	}
	stats := live.StageStats()
	if len(stats) != 2 || stats[0].Active || stats[0].Name != "" {
		t.Fatalf("idle marker stats = %+v", stats[0])
	}
	enc := filter.NewNull("managed-encoder")
	if changed, err := live.Occupy(KindFECAdapt, enc); err != nil || !changed {
		t.Fatalf("Occupy = %v/%v", changed, err)
	}
	if live.Instance(KindFECAdapt) != enc || !enc.Running() {
		t.Fatal("occupying instance not live")
	}
	if changed, err := live.Occupy(KindFECAdapt, enc); err != nil || changed {
		t.Fatalf("re-occupy with the same instance = %v/%v, want no change", changed, err)
	}
	// A recompose that keeps the marker keeps its occupant.
	target, err := Parse("counting,fec-adapt", ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatal(err)
	}
	if live.Instance(KindFECAdapt) != enc {
		t.Fatal("marker occupant lost across recompose")
	}
	// Another instance takes the occupant's place and retires it.
	next := filter.NewNull("next-encoder")
	if changed, err := live.Occupy(KindFECAdapt, next); err != nil || !changed {
		t.Fatalf("swap = %v/%v", changed, err)
	}
	if enc.Running() || !next.Running() || live.Instance(KindFECAdapt) != next {
		t.Fatal("swap did not retire the old occupant and run the new one")
	}
	if changed, err := live.Occupy(KindFECAdapt, nil); err != nil || !changed {
		t.Fatalf("vacate = %v/%v", changed, err)
	}
	if next.Running() {
		t.Fatal("vacated instance still running")
	}
	if changed, err := live.Occupy(KindFECAdapt, nil); err != nil || changed {
		t.Fatalf("second vacate = %v/%v, want no-op", changed, err)
	}
	// Recomposing the marker away removes the splice point entirely.
	target, err = Parse("counting", ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Occupy(KindFECAdapt, filter.NewNull("x")); !errors.Is(err, ErrNoStage) {
		t.Fatalf("Occupy without marker = %v, want ErrNoStage", err)
	}
	if changed, err := live.Occupy(KindFECAdapt, nil); err != nil || changed {
		t.Fatalf("vacate without marker = %v/%v, want no-op", changed, err)
	}
	if !bytes.Equal(dst.wait(t, len(payload)), payload) {
		t.Fatal("payload corrupted across marker operations")
	}
}

// recordingInterior is an Interior that records every SetInterior it is
// given.
type recordingInterior struct{ splices [][]filter.Filter }

func (r *recordingInterior) SetInterior(stages []filter.Filter) error {
	r.splices = append(r.splices, append([]filter.Filter(nil), stages...))
	return nil
}

// TestLiveOccupySwapIsOneSplice pins that changing a marker's occupant is one
// SetInterior: the departing and the arriving instance trade places between
// two frames, so no frame ever passes the marker with neither.
func TestLiveOccupySwapIsOneSplice(t *testing.T) {
	exec := &recordingInterior{}
	plan, err := Parse("fec-adapt,counting", ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Attach(exec, Default(), Env{StreamID: 7}, ModeBranch, plan)
	if err != nil {
		t.Fatal(err)
	}
	counting := live.Instance("counting")
	first, second := filter.NewNull("first"), filter.NewNull("second")
	for _, step := range []struct {
		occupant filter.Filter
		changed  bool
		interior []filter.Filter // after the step; nil: no splice
	}{
		{first, true, []filter.Filter{first, counting}},
		{second, true, []filter.Filter{second, counting}},
		{second, false, nil},
		{nil, true, []filter.Filter{counting}},
		{nil, false, nil},
	} {
		before := len(exec.splices)
		changed, err := live.Occupy(KindFECAdapt, step.occupant)
		if err != nil || changed != step.changed {
			t.Fatalf("Occupy(%v) = %v/%v, want changed=%v", step.occupant, changed, err, step.changed)
		}
		splices := exec.splices[before:]
		if step.interior == nil {
			if len(splices) != 0 {
				t.Fatalf("Occupy(%v) spliced %d times, want none", step.occupant, len(splices))
			}
			continue
		}
		if len(splices) != 1 {
			t.Fatalf("Occupy(%v) spliced %d times, want one", step.occupant, len(splices))
		}
		got := splices[0]
		same := len(got) == len(step.interior)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == step.interior[i]
		}
		if !same {
			t.Fatalf("Occupy(%v) spliced %d stages, want %d in plan order", step.occupant, len(got), len(step.interior))
		}
	}
}

// releaseSink discards what a chain emits.
type releaseSink struct{}

func (releaseSink) Deliver(b *packet.Buf) { b.Release() }

// TestAttachStagelessAllocs bounds a stage-less composition embedded in its
// owner, as an engine session's chain incarnation embeds its executor and
// Live: the owner is the one allocation, and Attach adds none.
func TestAttachStagelessAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	type incarnation struct {
		frames filter.FrameChain
		live   Live
	}
	reg := Default()
	var last *incarnation
	n := testing.AllocsPerRun(100, func() {
		in := new(incarnation)
		in.frames.Init(releaseSink{}, nil)
		if err := in.live.Attach(&in.frames, reg, Env{StreamID: 7, Qualify: true}, ModeChain, Plan{}); err != nil {
			t.Fatal(err)
		}
		last = in
	})
	if n != 1 {
		t.Fatalf("%v allocs per stage-less incarnation, want 1 (the owner)", n)
	}
	if got := last.live.String(); got != "" {
		t.Fatalf("plan = %q, want the empty plan", got)
	}
}
