package filter

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"rapidware/internal/stream"
)

// sourceFilter produces data into the chain: it ignores its input and writes
// the configured payload to its output in chunks, pacing itself with a short
// delay between chunks so that the stream is still live while tests splice
// filters in and out, then closes it.
func sourceFilter(name string, payload []byte, chunk int) *Base {
	return New(name, func(_ io.Reader, w io.Writer) error {
		for off := 0; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := w.Write(payload[off:end]); err != nil {
				return err
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	})
}

// sinkFilter consumes the chain's output into an internal buffer.
type sinkFilter struct {
	*Base
	mu  sync.Mutex
	buf bytes.Buffer
}

func newSink(name string) *sinkFilter {
	s := &sinkFilter{}
	s.Base = New(name, func(r io.Reader, _ io.Writer) error {
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			if n > 0 {
				s.mu.Lock()
				s.buf.Write(tmp[:n])
				s.mu.Unlock()
			}
			if err != nil {
				return err
			}
		}
	})
	return s
}

func (s *sinkFilter) bytesCopy() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

func (s *sinkFilter) waitFor(t *testing.T, want int) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		b := s.bytesCopy()
		if len(b) >= want {
			return b
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("sink received %d bytes, want %d", len(s.bytesCopy()), want)
	return nil
}

func TestChainAppendStartStop(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 500)
	c := NewChain("test")
	src := sourceFilter("src", payload, 128)
	mid := NewNull("mid")
	sink := newSink("sink")
	for _, f := range []Filter{src, mid, sink} {
		if err := c.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Names(); len(got) != 3 || got[0] != "src" || got[2] != "sink" {
		t.Fatalf("Names = %v", got)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("second Start err = %v", err)
	}
	got := sink.waitFor(t, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through chain")
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("second Stop err = %v", err)
	}
}

func TestChainAccessors(t *testing.T) {
	c := NewChain("accessors")
	if c.Name() != "accessors" {
		t.Fatalf("Name = %q", c.Name())
	}
	a, b := NewNull("a"), NewNull("b")
	c.Append(a)
	c.Append(b)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	fs := c.Filters()
	if len(fs) != 2 || fs[0] != a || fs[1] != b {
		t.Fatalf("Filters() = %v", fs)
	}
}

func TestChainAppendAfterStartStartsFilter(t *testing.T) {
	c := NewChain("late")
	c.Append(NewNull("a"))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	late := NewNull("late-filter")
	if err := c.Append(late); err != nil {
		t.Fatal(err)
	}
	if !late.Running() {
		t.Fatal("filter appended to a started chain was not started")
	}
	c.Stop()
}

func TestChainValidateDetectsBrokenWiring(t *testing.T) {
	c := NewChain("broken")
	a, b := NewNull("a"), NewNull("b")
	c.Append(a)
	c.Append(b)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Sever the connection behind the chain's back.
	go io.Copy(io.Discard, b.In())
	a.Out().Pause()
	if err := c.Validate(); err == nil {
		t.Fatal("Validate did not detect a severed connection")
	}
}

// Interface compliance for test helpers.
var _ Filter = (*sinkFilter)(nil)

func TestChainAppendConnectFailure(t *testing.T) {
	c := NewChain("connect-fail")
	a := NewNull("a")
	b := NewNull("b")
	// Pre-connect b's input so Append's Connect fails.
	if err := stream.Connect(stream.NewDetachableWriter(), b.In()); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(b); err == nil {
		t.Fatal("expected Append to fail when the filter is already wired")
	}
}
