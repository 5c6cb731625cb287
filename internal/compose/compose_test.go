package compose

import (
	"strings"
	"testing"

	"rapidware/internal/arq"
)

func TestParseCanonicalFixpoint(t *testing.T) {
	cases := []struct {
		spec string
		mode Mode
		want string
	}{
		{"", ModeChain, ""},
		{"null", ModeChain, "null"},
		{" null , counting ", ModeChain, "null,counting"},
		{"delay=5ms", ModeChain, "delay=5ms"},
		{"delay=300s", ModeChain, "delay=5m0s"},
		{"ratelimit=1024", ModeChain, "ratelimit=1024"},
		{"transcode", ModeChain, "transcode=2"},
		{"thin", ModeChain, "thin=2"},
		{"fec-encode=6/ 4", ModeChain, "fec-encode=6/4"},
		{"fec-encode=6/4,fec-decode", ModeChain, "fec-encode=6/4,fec-decode"},
		{"counting,thin=3,transcode=4", ModeChain, "counting,thin=3,transcode=4"},
		{"mono,compress=6,decompress", ModeChain, "mono,compress=6,decompress"},
		{"compress", ModeChain, "compress"},
		{"arq", ModeChain, "arq"},
		{"arq=512", ModeChain, "arq=512"},
		{"arq,fec-encode=6/4", ModeChain, "arq,fec-encode=6/4"},
		{"jitter=20", ModeChain, "jitter=20"},
		{"replay=32", ModeChain, "replay=32"},
		{"replay=32,arq=256,jitter=5", ModeChain, "replay=32,arq=256,jitter=5"},
		{"jitter=20", ModeBranch, "jitter=20"},
		{"fec-adapt", ModeBranch, "fec-adapt"},
		{"fec-adapt,ratelimit=64000", ModeBranch, "fec-adapt,ratelimit=64000"},
		{"thin=2,fec-adapt,ratelimit=1000", ModeBranch, "thin=2,fec-adapt,ratelimit=1000"},
	}
	for _, tc := range cases {
		p, err := Parse(tc.spec, tc.mode)
		if err != nil {
			t.Errorf("Parse(%q) = %v", tc.spec, err)
			continue
		}
		if got := p.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.spec, got, tc.want)
		}
		// Canonical form is a fixpoint: reparse and reprint.
		p2, err := Parse(p.String(), tc.mode)
		if err != nil {
			t.Errorf("reparse(%q) = %v", p.String(), err)
			continue
		}
		if p2.String() != p.String() {
			t.Errorf("canonical not a fixpoint: %q -> %q", p.String(), p2.String())
		}
	}
}

func TestParseRejections(t *testing.T) {
	bad := []struct {
		spec string
		mode Mode
	}{
		{"bogus", ModeChain},
		{"delay=xyz", ModeChain},
		{"ratelimit=-1", ModeChain},
		{"fec-encode=4", ModeChain},
		{"fec-encode=4/6", ModeChain},
		{"fec-encode=a/b", ModeChain},
		{"transcode=0", ModeChain},
		{"thin=x", ModeChain},
		{"compress=99", ModeChain},
		{"compress=x", ModeChain},
		{"arq=0", ModeChain},
		{"arq=x", ModeChain},
		{"jitter", ModeChain},   // delay is required
		{"jitter=0", ModeChain}, // ... and positive
		{"replay", ModeChain},
		{"replay=0", ModeChain},
		{"replay=-1", ModeChain},
		// The retransmission history must record the data stream, not parity.
		{"fec-encode=6/4,arq", ModeChain},
		{"fec-adapt", ModeChain},            // marker is branch-only
		{"fec-decode", ModeBranch},          // decode is chain-only
		{"thin=2,fec-decode", ModeBranch},   // ... anywhere in the spec
		{"fec-adapt=6/4", ModeBranch},       // marker takes no parameter
		{"fec-adapt,fec-adapt", ModeBranch}, // at most one marker
		// A static encoder beside the marker would re-encode the adaptive
		// encoder's output (parity-of-parity); rejected in every mode so a
		// live recompose cannot sneak it past the startup check either.
		{"fec-adapt,fec-encode=6/4", ModeBranch},
		{"fec-encode=6/4,fec-adapt", Mode{AllowMarker: true, AllowChainOnly: true}},
	}
	for _, tc := range bad {
		if _, err := Parse(tc.spec, tc.mode); err == nil {
			t.Errorf("Parse(%q, %+v) succeeded, want error", tc.spec, tc.mode)
		}
	}
}

// TestParseChain and TestParseBranch hold the spec cases of the engine's
// Config.Chain and Config.Branch that the tables above do not already cover.
func TestParseChain(t *testing.T) {
	for _, spec := range []string{"counting,checksum", "fec-encode=6/4", "transcode=2", "thin=3", "counting,thin=2,transcode=4"} {
		if _, err := Parse(spec, ModeChain); err != nil {
			t.Errorf("Parse(%q, ModeChain) = %v, want nil", spec, err)
		}
	}
	for _, spec := range []string{"thin=-1", "transcode=x"} {
		if _, err := Parse(spec, ModeChain); err == nil {
			t.Errorf("Parse(%q, ModeChain) succeeded, want error", spec)
		}
	}
}

func TestParseBranch(t *testing.T) {
	cases := []struct {
		spec      string
		stages    int
		markerIdx int
	}{
		{"", 0, -1},
		{"thin=2", 1, -1},
		{"fec-adapt", 1, 0},
		{"fec-adapt,ratelimit=64000", 2, 0},
		{"ratelimit=64000,fec-adapt", 2, 1},
		{"thin=2,fec-adapt,ratelimit=1000", 3, 1},
	}
	for _, tc := range cases {
		plan, err := Parse(tc.spec, ModeBranch)
		if err != nil {
			t.Errorf("Parse(%q, ModeBranch) = %v", tc.spec, err)
			continue
		}
		if plan.Len() != tc.stages || plan.Index(KindFECAdapt) != tc.markerIdx {
			t.Errorf("Parse(%q, ModeBranch) = %d stages, marker %d; want %d, %d",
				tc.spec, plan.Len(), plan.Index(KindFECAdapt), tc.stages, tc.markerIdx)
		}
	}
	for _, spec := range []string{"bogus", "thin=0"} {
		if _, err := Parse(spec, ModeBranch); err == nil {
			t.Errorf("Parse(%q, ModeBranch) succeeded, want error", spec)
		}
	}
}

func TestParseMarkerAllowedOnAdaptiveTrunk(t *testing.T) {
	mode := ModeChain
	mode.AllowMarker = true
	p, err := Parse("fec-adapt,fec-decode", mode)
	if err != nil {
		t.Fatalf("Parse with AllowMarker trunk mode: %v", err)
	}
	if p.Index(KindFECAdapt) != 0 || p.Index("fec-decode") != 1 {
		t.Fatalf("unexpected plan %q", p)
	}
}

func TestPlanEdits(t *testing.T) {
	p, err := Parse("counting,thin=2", ModeChain)
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.WithInsert(1, Stage{Kind: "checksum"})
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "counting,checksum,thin=2" {
		t.Fatalf("WithInsert = %q", q)
	}
	if p.String() != "counting,thin=2" {
		t.Fatalf("WithInsert mutated the receiver: %q", p)
	}
	q, err = q.WithMove(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "checksum,thin=2,counting" {
		t.Fatalf("WithMove = %q", q)
	}
	q, err = q.WithRemove(1)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "checksum,counting" {
		t.Fatalf("WithRemove = %q", q)
	}
	for _, fail := range []func() error{
		func() error { _, err := q.WithInsert(5, Stage{Kind: "null"}); return err },
		func() error { _, err := q.WithRemove(-1); return err },
		func() error { _, err := q.WithMove(0, 9); return err },
	} {
		if fail() == nil {
			t.Fatal("out-of-range plan edit succeeded")
		}
	}
}

func TestRegistryCloneAndDuplicate(t *testing.T) {
	base := Default()
	if err := base.Clone().Register(Definition{Kind: "null", Build: Default().defs["null"].Build}); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
	clone := base.Clone()
	if err := clone.Register(Definition{Kind: "custom", Build: base.defs["null"].Build}); err != nil {
		t.Fatal(err)
	}
	if _, ok := base.Lookup("custom"); ok {
		t.Fatal("Clone shares storage with the default registry")
	}
	if _, ok := clone.Lookup("custom"); !ok {
		t.Fatal("clone lost its registration")
	}
	kinds := strings.Join(base.Kinds(), ",")
	for _, want := range []string{"null", "counting", "checksum", "delay", "ratelimit", "transcode", "thin", "fec-encode", "fec-decode", "fec-adapt"} {
		if !strings.Contains(kinds, want) {
			t.Fatalf("default registry missing %q: %s", want, kinds)
		}
	}
}

func TestEnvStageName(t *testing.T) {
	e := Env{}
	if e.StageName("counting") != "counting" {
		t.Fatal("default stage name should be the kind")
	}
	e.Name = func(kind string) string { return kind + ":7" }
	if e.StageName("counting") != "counting:7" {
		t.Fatal("Env.Name not honored")
	}
}

func TestBuildMarkerFails(t *testing.T) {
	if _, err := Default().Build(Env{}, Stage{Kind: KindFECAdapt}); err == nil {
		t.Fatal("building a marker stage must fail")
	}
	if _, err := Default().Build(Env{}, Stage{Kind: "nope"}); err == nil {
		t.Fatal("building an unknown stage must fail")
	}
}

func TestReplayStageValidation(t *testing.T) {
	for _, arg := range []string{"", "0", "-1", "x"} {
		if _, err := Default().CanonStage(KindReplay, arg); err == nil {
			t.Errorf("CanonStage(replay, %q) succeeded, want error", arg)
		}
	}
	st, err := Default().CanonStage(KindReplay, "4")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Default().Build(Env{}, st)
	if err != nil {
		t.Fatal(err)
	}
	sf, ok := f.(*arq.SenderFilter)
	if !ok {
		t.Fatalf("replay=4 built %T, want *arq.SenderFilter", f)
	}
	if sf.Name() != "replay" || sf.HistoryLimit() != 4 {
		t.Fatalf("defaults = (%q, %d), want (replay, 4)", sf.Name(), sf.HistoryLimit())
	}
}
