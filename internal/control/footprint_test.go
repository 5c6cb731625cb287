package control

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"rapidware/internal/metrics"
	"rapidware/internal/race"
)

// replyConn is the server end of one control connection for the sessions
// footprint test: reads come from r, and every written byte is checked
// against want as it arrives, so the conn itself allocates nothing.
type replyConn struct {
	r        *strings.Reader
	want     []byte
	off      int
	bad      int // offset of the first byte that differs from want, or -1
	maxWrite int
}

func (c *replyConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func (c *replyConn) Write(p []byte) (int, error) {
	c.maxWrite = max(c.maxWrite, len(p))
	if c.bad < 0 && (c.off+len(p) > len(c.want) || !bytes.Equal(p, c.want[c.off:c.off+len(p)])) {
		c.bad = c.off
	}
	c.off += len(p)
	return len(p), nil
}

// footprintSessions returns n sessions ordered by ID. The first carries every
// optional column — receivers, adaptation state, stages, the parked flag,
// idle time — and a chain spec that JSON must escape, HTML-safe characters
// included.
func footprintSessions(n int) stubSessions {
	out := make(stubSessions, n)
	for i := range out {
		id := uint32(2*i + 1)
		out[i] = metrics.SessionStats{
			ID: id, Shard: i % 4, Packets: uint64(i) * 1000, Bytes: uint64(i) * 64000,
			OutPackets: uint64(i) * 999, OutBytes: uint64(i) * 63936, Drops: uint64(i % 3),
			Chain:  "counting,fec-encode=6/4",
			Stages: []metrics.StageStats{{Kind: "counting", Spec: "counting", Name: fmt.Sprintf("counting-%d", id), Active: true, InBytes: 64, OutBytes: 64}},
		}
	}
	if n > 0 {
		out[0].Chain = "tag=<a&b>\"q\"\u2028\\\t"
		out[0].Parked = true
		out[0].IdleForMs = 1234
		out[0].Adapt = &metrics.AdaptStats{K: 4, N: 6, Active: true, LossRate: 0.125, Reports: 9, Receivers: 2, Retunes: 3, Mechanism: "fec", HighestSeq: 77}
		out[0].Receivers = []metrics.ReceiverStats{
			{Receiver: "10.0.0.1:9000", OutPackets: 5, Stages: []string{"fec-adapt", "ratelimit=64000"}, Chain: "fec-adapt,ratelimit=64000", K: 4, N: 6, Active: true, LossRate: 0.25, Reports: 2},
			{Receiver: "10.0.0.2:9000", Drops: 1, Primed: 3},
		}
		out[0].Cohorts = 2
	}
	return out
}

// TestSessionsReplyFootprint: the sessions reply a control connection writes
// is byte for byte what json.Encoder writes for the whole Response, HTML
// escaping included, so no client changes; yet the server never holds the
// encoded listing. No single write to the connection is larger than the
// reply buffer, and the bytes the connection allocates per listed session
// stay within a bound about 1.5x over what a 64-bit host reads. Heap counts
// are not meaningful under -race.
func TestSessionsReplyFootprint(t *testing.T) {
	const maxBytesPerSession = 1.8
	for _, n := range []int{0, 1, 20000} {
		src := footprintSessions(n)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(Response{OK: true, Sessions: src}); err != nil {
			t.Fatal(err)
		}
		s := NewServer(nil)
		s.SetSessionSource(src)
		conn := &replyConn{r: strings.NewReader(`{"op":"sessions"}` + "\n"), want: want.Bytes(), bad: -1}

		// Encoding want left its buffer in encoding/json's state pool; two
		// collections empty the pool, so the server starts without it.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		s.serveConn(conn)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)

		if conn.bad >= 0 || conn.off != want.Len() {
			t.Fatalf("%d sessions: reply differs from json.Encoder's at byte %d (wrote %d of %d bytes)", n, conn.bad, conn.off, want.Len())
		}
		if conn.maxWrite > replyBufferBytes {
			t.Errorf("%d sessions: largest write to the connection is %d bytes, above the %d-byte reply buffer", n, conn.maxWrite, replyBufferBytes)
		}
		if n < 1000 || race.Enabled {
			continue
		}
		perSession := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%d sessions: %d reply bytes, largest write %d, %.2f bytes allocated per session", n, want.Len(), conn.maxWrite, perSession)
		if perSession > maxBytesPerSession {
			t.Errorf("%d sessions: the reply allocated %.1f bytes per session, bound %.1f", n, perSession, maxBytesPerSession)
		}
	}
}
