// Package span is the benchmark's tracer: spans recorded around the calls the
// harness makes into each layer, kept in memory and written out when the run
// ends. A nil *Tracer records nothing, so untraced code pays one branch.
package span

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call. Parent is the index of the span that caused it
// (-1 for a root); spans of one request share Req.
type Span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// Tracer records the spans of one goroutine; it is not safe for concurrent
// use. Once limit spans are held, Begin returns -1 and End ignores it, so a
// long run keeps a bounded prefix.
type Tracer struct {
	epoch time.Time
	limit int
	spans []Span
}

// New returns a tracer holding at most limit spans, stamped relative to epoch.
func New(epoch time.Time, limit int) *Tracer {
	return &Tracer{epoch: epoch, limit: limit, spans: make([]Span, 0, limit)}
}

// Begin opens a span and returns its index for End and for children's parent.
func (t *Tracer) Begin(name, layer string, parent, req int) int {
	if t == nil || len(t.spans) >= t.limit {
		return -1
	}
	t.spans = append(t.spans, Span{
		Name: name, Layer: layer, Parent: parent, Req: req,
		StartNs: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

// End closes the span Begin returned and reports its duration in ns.
func (t *Tracer) End(id int) int64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.epoch))
	return s.EndNs - s.StartNs
}

// Spans returns what was recorded. A span never closed is given zero length
// (indices must stay put: they are other spans' parents).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.EndNs == 0 {
			s.EndNs = s.StartNs
		}
	}
	return t.spans
}

// SelfTimes returns, per span, its duration minus the part of its interval
// its direct children cover (overlapping children are not counted twice).
// Parent indices must refer to positions in spans.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered := s.StartNs // everything before this instant is accounted for
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, covered), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// Total is the summed self time of every span sharing a layer and name.
type Total struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Count  int    `json:"count"`
	SelfNs int64  `json:"self_ns"`
}

// Totals folds every track's spans into one row per (layer, name), ordered by
// layer then name. Parent indices are per track.
func Totals(tracks [][]Span) []Total {
	byKey := map[[2]string]*Total{}
	for _, spans := range tracks {
		self := SelfTimes(spans)
		for i, s := range spans {
			k := [2]string{s.Layer, s.Name}
			t := byKey[k]
			if t == nil {
				t = &Total{Layer: s.Layer, Name: s.Name}
				byKey[k] = t
			}
			t.Count++
			t.SelfNs += self[i]
		}
	}
	out := make([]Total, 0, len(byKey))
	for _, t := range byKey {
		out = append(out, *t)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Layer != out[b].Layer {
			return out[a].Layer < out[b].Layer
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// File is the on-disk form of one workload's trace.
type File struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Totals   []Total `json:"totals"`
	// Tracks holds each goroutine's spans; parent indices are per track.
	Tracks [][]Span `json:"tracks"`
}

// Write stores the trace at path.
func Write(path string, f File) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
