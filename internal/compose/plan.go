// Package compose is the proxy's composition plane: one validated plan IR
// for every filter chain in the system, one parser for the textual spec
// language, one pretty-printer back to the canonical spec string, and one
// registry through which every stage kind is instantiated.
//
// A Plan is an ordered list of stage specs — the paper's "composition of
// proxylets" lifted into a first-class value. The engine's trunk chains,
// its per-receiver delivery-branch tails and rapidproxy's single-stream mode
// all build their interiors from plans, and a Live wraps a running chain so
// the whole composition can be rewritten transactionally while traffic
// flows: the control plane's Edits (replace, insert, remove, move) and the
// adaptation plane's responder splices are all plan rewrites applied under
// one splice lock.
package compose

import (
	"fmt"
	"strings"
)

// KindFECAdapt is the marker stage kind reserving a position for an
// adaptation responder's repair mechanism (an FEC encoder or an ARQ
// history). A marker has no instance of its own until the responder
// activates one.
const KindFECAdapt = "fec-adapt"

// The reliability-spectrum stage kinds: sender-side retransmission history
// ("arq"), reorder/smoothing buffer ("jitter=<ms>") and cache-backed
// late-join catch-up ("replay=<n>").
const (
	KindARQ    = "arq"
	KindJitter = "jitter"
	KindReplay = "replay"
)

// Stage is one validated stage spec of a plan: a registered kind plus its
// canonicalized argument.
type Stage struct {
	Kind string `json:"kind"`
	Arg  string `json:"arg,omitempty"`
}

// String renders the stage in spec syntax ("kind" or "kind=arg").
func (s Stage) String() string {
	if s.Arg == "" {
		return s.Kind
	}
	return s.Kind + "=" + s.Arg
}

// key is the stage's identity for instance matching during recomposition:
// two stages with equal keys are interchangeable, so a live filter instance
// carries over from one plan to the next.
func (s Stage) key() string { return s.Kind + "\x00" + s.Arg }

// Plan is the validated IR of one chain composition: the ordered interior
// stages instantiated between a chain's two endpoints. The zero value is the
// empty plan (a pure relay).
type Plan struct {
	Stages []Stage `json:"stages"`
}

// String renders the plan as its canonical spec string — the fixpoint form:
// parsing the result yields a plan that prints identically.
func (p Plan) String() string {
	parts := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

// Key returns the plan's canonical identity string: two plans with equal
// keys are interchangeable compositions (same stages, same canonical
// arguments, same order). Unlike String it is never parsed back, so it uses
// unprintable separators and is safe to extend with out-of-band identity
// (the engine appends the repair mechanism to form cohort keys).
func (p Plan) Key() string {
	parts := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		parts[i] = s.key()
	}
	return strings.Join(parts, "\x01")
}

// Len returns the number of stages (markers included).
func (p Plan) Len() int { return len(p.Stages) }

// Index returns the position of the first stage with the given kind, or -1.
func (p Plan) Index(kind string) int {
	for i, s := range p.Stages {
		if s.Kind == kind {
			return i
		}
	}
	return -1
}

// Has reports whether any stage has the given kind.
func (p Plan) Has(kind string) bool { return p.Index(kind) >= 0 }

// Clone returns a deep copy of the plan.
func (p Plan) Clone() Plan {
	return Plan{Stages: append([]Stage(nil), p.Stages...)}
}

// WithInsert returns a copy of the plan with st inserted at position pos
// (0 <= pos <= Len; pos == Len appends).
func (p Plan) WithInsert(pos int, st Stage) (Plan, error) {
	if pos < 0 || pos > len(p.Stages) {
		return Plan{}, fmt.Errorf("compose: insert position %d out of range [0, %d]", pos, len(p.Stages))
	}
	q := Plan{Stages: make([]Stage, 0, len(p.Stages)+1)}
	q.Stages = append(q.Stages, p.Stages[:pos]...)
	q.Stages = append(q.Stages, st)
	q.Stages = append(q.Stages, p.Stages[pos:]...)
	return q, nil
}

// WithRemove returns a copy of the plan without the stage at pos.
func (p Plan) WithRemove(pos int) (Plan, error) {
	if pos < 0 || pos >= len(p.Stages) {
		return Plan{}, fmt.Errorf("compose: remove position %d out of range [0, %d)", pos, len(p.Stages))
	}
	q := Plan{Stages: make([]Stage, 0, len(p.Stages)-1)}
	q.Stages = append(q.Stages, p.Stages[:pos]...)
	q.Stages = append(q.Stages, p.Stages[pos+1:]...)
	return q, nil
}

// WithMove returns a copy of the plan with the stage at from relocated to
// position to (positions in the resulting plan).
func (p Plan) WithMove(from, to int) (Plan, error) {
	if from < 0 || from >= len(p.Stages) {
		return Plan{}, fmt.Errorf("compose: move source %d out of range [0, %d)", from, len(p.Stages))
	}
	if to < 0 || to >= len(p.Stages) {
		return Plan{}, fmt.Errorf("compose: move target %d out of range [0, %d)", to, len(p.Stages))
	}
	st := p.Stages[from]
	q, err := p.WithRemove(from)
	if err != nil {
		return Plan{}, err
	}
	return q.WithInsert(to, st)
}

// Mode says which stage classes a plan may legally contain, distinguishing
// trunk chains from delivery-branch tails (and, for live recomposition,
// chains whose adaptation plane manages a marker stage).
type Mode struct {
	// AllowMarker permits marker stages (fec-adapt): branch-tail specs, and
	// live recomposition of any chain owned by an adaptation loop.
	AllowMarker bool
	// AllowChainOnly permits chain-only stages (fec-decode), which must not
	// run per delivery branch.
	AllowChainOnly bool
}

// The two spec dialects of the configuration surface.
var (
	// ModeChain validates a trunk chain spec (Config.Chain).
	ModeChain = Mode{AllowChainOnly: true}
	// ModeBranch validates a delivery-branch tail spec (Config.Branch).
	ModeBranch = Mode{AllowMarker: true}
)

// Parse validates a spec string against the default registry and returns its
// plan. See ParseWith.
func Parse(spec string, mode Mode) (Plan, error) {
	return ParseWith(Default(), spec, mode)
}

// ParseWith validates a comma-separated spec string ("kind" or "kind=arg"
// stages) against reg and returns the canonicalized plan. An empty spec
// yields the empty plan. This is the single parser for every chain spec in
// the system: the engine's Config.Chain and Config.Branch, stream mode's
// -chain, and the stage specs a live Edit carries all go through it.
func ParseWith(reg *Registry, spec string, mode Mode) (Plan, error) {
	var p Plan
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, arg, _ := strings.Cut(part, "=")
		st, err := reg.CanonStage(strings.TrimSpace(kind), strings.TrimSpace(arg))
		if err != nil {
			return Plan{}, err
		}
		p.Stages = append(p.Stages, st)
	}
	if err := reg.Validate(p, mode); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// ParseStage parses a spec that must contain exactly one stage — the stage
// argument of the control plane's insert operation.
func ParseStage(reg *Registry, spec string, mode Mode) (Stage, error) {
	plan, err := ParseWith(reg, spec, mode)
	if err != nil {
		return Stage{}, err
	}
	if plan.Len() != 1 {
		return Stage{}, fmt.Errorf("compose: want exactly one stage, got %q", spec)
	}
	return plan.Stages[0], nil
}
