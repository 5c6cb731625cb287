package compose

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestStreamSession drives the stream adapter the control plane sees in
// rapidproxy's stream mode: it answers only for its own session and has no
// delivery branches, removes by kind and by position, and every edit is a
// live splice that keeps the stream intact.
func TestStreamSession(t *testing.T) {
	payload := bytes.Repeat([]byte("stream-session "), 1<<12)
	live, dst := newLiveChain(t, payload, ModeChain, "counting")
	s := NewStreamSession(live)

	stats := slices.Collect(s.SessionStats)
	if len(stats) != 1 || stats[0].ID != 7 || stats[0].Chain != "counting" || len(stats[0].Stages) != 1 {
		t.Fatalf("SessionStats = %+v", stats)
	}
	if kinds := strings.Join(s.Kinds(), ","); !strings.Contains(kinds, "fec-encode") {
		t.Fatalf("Kinds = %s", kinds)
	}

	// Misaddressed operations fail without touching the plan.
	if _, err := s.EditSession(8, "", Insert("checksum", 0)); err == nil || !strings.Contains(err.Error(), "unknown session 8") {
		t.Fatalf("wrong session ID: %v", err)
	}
	if _, err := s.EditSession(7, "10.0.0.1:9000", Remove("counting")); err == nil || !strings.Contains(err.Error(), "no delivery branches") {
		t.Fatalf("receiver on a stream: %v", err)
	}
	if _, err := s.EditSession(7, "", Insert("checksum,null", 0)); err == nil {
		t.Fatal("a two-stage insert was accepted")
	}
	if _, err := s.EditSession(7, "", Replace(KindFECAdapt)); err == nil {
		t.Fatal("a marker was accepted on a stream chain")
	}
	if live.String() != "counting" {
		t.Fatalf("rejected operations changed the plan: %q", live.String())
	}

	counting := live.Instance("counting")
	steps := []struct {
		op   func() (string, error)
		want string
	}{
		{func() (string, error) { return s.EditSession(7, "", Insert("checksum", 0)) }, "checksum,counting"},
		{func() (string, error) { return s.EditSession(7, "", Insert("null", 2)) }, "checksum,counting,null"},
		{func() (string, error) { return s.EditSession(7, "", Move(2, 0)) }, "null,checksum,counting"},
		{func() (string, error) { return s.EditSession(7, "", Remove("checksum")) }, "null,counting"}, // by kind
		{func() (string, error) { return s.EditSession(7, "", Remove("0")) }, "counting"},             // by position
		{func() (string, error) { return s.EditSession(7, "", Replace("checksum,counting,null")) }, "checksum,counting,null"},
		{func() (string, error) { return s.EditSession(7, "", Replace("counting")) }, "counting"},
	}
	for i, st := range steps {
		chain, err := st.op()
		if err != nil || chain != st.want {
			t.Fatalf("step %d = %q, %v; want %q", i, chain, err, st.want)
		}
	}
	if _, err := s.EditSession(7, "", Remove("null")); err == nil {
		t.Fatal("removed a kind the plan does not hold")
	}
	if live.Instance("counting") != counting {
		t.Fatal("the counting stage lost its instance across the edits")
	}
	if !bytes.Equal(dst.wait(t, len(payload)), payload) {
		t.Fatal("stream corrupted across stream-session edits")
	}
}
