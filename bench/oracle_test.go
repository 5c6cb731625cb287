package main

import (
	"encoding/json"
	"os"
	"testing"

	"rapidware/bench/gen"
)

func TestStreamOracle(t *testing.T) {
	var tl tally
	s := stream{sent: 10}
	tag := func(i uint32, intact bool) gen.Tag { return gen.Tag{Index: i, Intact: intact} }

	if n, ok := s.check(&tl, tag(0, true)); n != 1 || !ok {
		t.Fatalf("in-order frame: settled %d ok %v", n, ok)
	}
	if n, ok := s.check(&tl, tag(3, true)); n != 3 || !ok || tl.lost != 2 {
		t.Fatalf("frame past a gap: settled %d ok %v lost %d", n, ok, tl.lost)
	}
	if n, ok := s.check(&tl, tag(1, true)); n != 0 || ok || tl.dup != 1 {
		t.Fatalf("late arrival: settled %d ok %v dup %d", n, ok, tl.dup)
	}
	if n, ok := s.check(&tl, tag(3, true)); n != 0 || ok || tl.dup != 2 {
		t.Fatalf("duplicate: settled %d ok %v dup %d", n, ok, tl.dup)
	}
	if n, ok := s.check(&tl, tag(4, false)); n != 1 || ok || tl.corrupt != 1 {
		t.Fatalf("corrupt body: settled %d ok %v corrupt %d", n, ok, tl.corrupt)
	}
	if n, ok := s.check(&tl, tag(10, true)); n != 0 || ok || tl.dup != 3 {
		t.Fatalf("frame never sent: settled %d ok %v dup %d", n, ok, tl.dup)
	}
	if n := s.writeOff(&tl); n != 5 || tl.lost != 7 || s.next != s.sent {
		t.Fatalf("write-off: settled %d lost %d", n, tl.lost)
	}
	if tl.failed() != 7+3+1 {
		t.Fatalf("failed = %d", tl.failed())
	}
}

// TestBenchmarkJSONMatchesTheCatalogue keeps BENCHMARK.json, which the driver
// reads, in step with the catalogue the harness prints from.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	ws := gen.Workloads()
	if len(file.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, catalogue %q", i, file.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound mismatch", kind, d.name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}
