package span

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "b", StartNs: 20, EndNs: 50, Parent: 0},    // overlaps a: only 30..50 is new cover
		{Name: "c", StartNs: 90, EndNs: 120, Parent: 0},   // runs past the parent: clipped at 100
		{Name: "a1", StartNs: 12, EndNs: 18, Parent: 1},   // grandchild: a's business, not root's
		{Name: "late", StartNs: 40, EndNs: 45, Parent: 0}, // inside b's cover: adds nothing
	}
	self := SelfTimes(spans)
	want := []int64{100 - (20 + 20 + 10), 20 - 6, 30, 30, 6, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self time %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestTotalsFoldByLayerAndName(t *testing.T) {
	track := []Span{
		{Name: "iteration", Layer: "gen", StartNs: 0, EndNs: 10, Parent: -1},
		{Name: "WriteBatch", Layer: "netbatch", StartNs: 1, EndNs: 4, Parent: 0},
		{Name: "iteration", Layer: "gen", StartNs: 10, EndNs: 30, Parent: -1},
		{Name: "WriteBatch", Layer: "netbatch", StartNs: 12, EndNs: 17, Parent: 2},
	}
	got := Totals([][]Span{track, track})
	want := []Total{
		{Layer: "gen", Name: "iteration", Count: 4, SelfNs: 2 * (7 + 15)},
		{Layer: "netbatch", Name: "WriteBatch", Count: 4, SelfNs: 2 * (3 + 5)},
	}
	if len(got) != len(want) {
		t.Fatalf("totals = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("total %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTracerNilAndLimit(t *testing.T) {
	var off *Tracer
	if id := off.Begin("x", "y", -1, 0); id != -1 || off.End(id) != 0 || off.Spans() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := New(time.Now(), 2)
	root := tr.Begin("root", "gen", -1, 7)
	child := tr.Begin("child", "gen", root, 7)
	if over := tr.Begin("over", "gen", root, 7); over != -1 || tr.End(over) != 0 {
		t.Fatal("the limit must stop recording")
	}
	tr.End(child)
	// root is never closed: it must survive as a zero-length span so that
	// child's parent index still points at it.
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[0].EndNs != spans[0].StartNs || spans[1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].EndNs < spans[1].StartNs {
		t.Fatal("span ends before it starts")
	}
}
