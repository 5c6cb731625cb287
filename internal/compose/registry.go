package compose

import (
	"compress/flate"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/arq"
	"rapidware/internal/audio"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/transcode"
)

// Env is the build environment a chain owner supplies when plan stages are
// instantiated: everything a stage constructor may need that is not part of
// the stage spec itself.
type Env struct {
	// StreamID is stamped on packets emitted by FEC stages.
	StreamID uint32
	// Qualify names instances kind:StreamID<Suffix> (an engine session's
	// trunk and cohort tails), not by kind alone.
	Qualify bool
	Suffix  string
	// Counters is the owning session's counter block: an FEC decoder stage
	// adds every packet it reconstructs to Repairs, and every stage counts a
	// frame it discards because it cannot accept it (a bad frame, an FEC
	// decoder's duplicate or mismatched shares, a timed stage's overflow)
	// into Drops. Counts land directly in the block, so they outlive the
	// stage. nil counts nothing.
	Counters *metrics.SessionCounters
	// Groups is the owning session's FEC group numbering: every FEC encoder
	// built for the session draws its group numbers from it, so an encoder
	// that replaces another never repeats a number a receiver's decoder may
	// still remember. nil numbers each encoder's groups from 0.
	Groups *atomic.Uint32
}

// countDrops points a stage instance's drop hook at Counters.Drops, when both
// exist.
func (e Env) countDrops(f filter.Filter) {
	if d, ok := f.(interface{ OnDrop(func()) }); ok && e.Counters != nil {
		drops := &e.Counters.Drops
		d.OnDrop(func() { drops.Add(1) })
	}
}

// repairs is where an FEC decoder stage adds its repairs, nil without
// Counters.
func (e Env) repairs() *atomic.Uint64 {
	if e.Counters == nil {
		return nil
	}
	return &e.Counters.Repairs
}

// StageName resolves the instance name for a stage kind.
func (e Env) StageName(kind string) string {
	if !e.Qualify {
		return kind
	}
	return kind + ":" + strconv.FormatUint(uint64(e.StreamID), 10) + e.Suffix
}

// Definition describes one registered stage kind.
type Definition struct {
	// Kind is the spec keyword.
	Kind string
	// Canon validates an argument and returns its canonical form (the form
	// Plan.String prints). nil accepts any argument verbatim (trimmed).
	Canon func(arg string) (string, error)
	// Build instantiates the stage. nil is only legal for marker kinds.
	Build func(env Env, arg string) (filter.Filter, error)
	// Marker marks a position-only pseudo-stage (fec-adapt): it reserves a
	// plan position for an instance that an adaptation responder activates
	// and deactivates at run time.
	Marker bool
	// ChainOnly restricts the stage to trunk chains (fec-decode): one decode
	// per session, never per delivery branch.
	ChainOnly bool
}

// canonArg applies the definition's canonicalizer.
func (d Definition) canonArg(arg string) (string, error) {
	if d.Canon == nil {
		return arg, nil
	}
	return d.Canon(arg)
}

// Registry maps stage kinds to definitions. It is safe for concurrent use.
// The Default registry carries every built-in kind; chains with bespoke
// stages (tests, third-party deployments) extend a Clone.
type Registry struct {
	mu   sync.Mutex
	defs map[string]Definition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: make(map[string]Definition)}
}

// Register adds a definition. Registering a kind twice is an error.
func (r *Registry) Register(d Definition) error {
	if d.Kind == "" {
		return fmt.Errorf("compose: definition needs a kind")
	}
	if d.Build == nil && !d.Marker {
		return fmt.Errorf("compose: kind %q needs a builder (or Marker)", d.Kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.defs[d.Kind]; ok {
		return fmt.Errorf("compose: kind %q already registered", d.Kind)
	}
	r.defs[d.Kind] = d
	return nil
}

// Clone returns an independent copy of the registry.
func (r *Registry) Clone() *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Registry{defs: make(map[string]Definition, len(r.defs))}
	for k, d := range r.defs {
		c.defs[k] = d
	}
	return c
}

// Lookup returns the definition for kind.
func (r *Registry) Lookup(kind string) (Definition, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.defs[kind]
	return d, ok
}

// Kinds returns the sorted list of registered kinds.
func (r *Registry) Kinds() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	kinds := make([]string, 0, len(r.defs))
	for k := range r.defs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// CanonStage validates one (kind, arg) pair and returns the canonical stage.
func (r *Registry) CanonStage(kind, arg string) (Stage, error) {
	d, ok := r.Lookup(kind)
	if !ok {
		return Stage{}, fmt.Errorf("compose: unknown chain stage %q", kind)
	}
	canon, err := d.canonArg(arg)
	if err != nil {
		return Stage{}, err
	}
	return Stage{Kind: kind, Arg: canon}, nil
}

// Validate checks that every stage of the plan is registered and legal for
// the mode, that no marker kind appears more than once, that a plan never
// carries both the fec-adapt marker and a static fec-encode stage — the
// adaptation responder owns FEC encoding on marker-bearing chains, and a
// static encoder beside it would re-encode the responder's encoder output
// (parity-of-parity) the moment loss appears — and that an arq history never
// sits downstream of fec-encode, where it would record parity frames'
// sequence space instead of the data stream receivers NACK against. (arq
// downstream of the fec-adapt *marker* is legal: the history tracks only
// data frames, so marker-activated parity passes through untracked.) Because
// every path — engine startup specs and live recompositions alike —
// validates here, the invariants cannot be bypassed mid-session.
func (r *Registry) Validate(p Plan, mode Mode) error {
	markers := make(map[string]bool)
	hasMarker, hasStaticFEC := false, false
	for _, st := range p.Stages {
		d, ok := r.Lookup(st.Kind)
		if !ok {
			return fmt.Errorf("compose: unknown chain stage %q", st.Kind)
		}
		if d.Marker {
			if !mode.AllowMarker {
				return fmt.Errorf("compose: %s is a branch-only stage (use it in a -branch spec)", st.Kind)
			}
			if markers[st.Kind] {
				return fmt.Errorf("compose: plan %q names %s more than once", p.String(), st.Kind)
			}
			markers[st.Kind] = true
			hasMarker = true
		}
		if st.Kind == "fec-encode" {
			hasStaticFEC = true
		}
		if st.Kind == KindARQ && hasStaticFEC {
			return fmt.Errorf("compose: plan %q puts %s downstream of fec-encode; the retransmission history must see the data stream, not parity (put %s first)", p.String(), KindARQ, KindARQ)
		}
		if d.ChainOnly && !mode.AllowChainOnly {
			return fmt.Errorf("compose: %s is a chain-only stage; decode on the trunk, not per branch", st.Kind)
		}
	}
	if hasMarker && hasStaticFEC {
		return fmt.Errorf("compose: plan %q carries both %s and fec-encode; the adaptation plane manages the FEC encoder itself", p.String(), KindFECAdapt)
	}
	return nil
}

// Build instantiates the stage through its registered builder and points the
// instance's drop hook at env.Counters when it counts drops. Marker stages
// have no builder; their instances come from the adaptation plane.
func (r *Registry) Build(env Env, st Stage) (filter.Filter, error) {
	d, ok := r.Lookup(st.Kind)
	if !ok {
		return nil, fmt.Errorf("compose: unknown chain stage %q", st.Kind)
	}
	if d.Marker || d.Build == nil {
		return nil, fmt.Errorf("compose: %s is a marker stage with no builder", st.Kind)
	}
	f, err := d.Build(env, st.Arg)
	if err != nil {
		return nil, fmt.Errorf("compose: build %s: %w", st, err)
	}
	env.countDrops(f)
	return f, nil
}

var defaultRegistry = sync.OnceValue(newDefaultRegistry)

// Default returns the shared registry holding every built-in stage kind. It
// is the single source of truth for what the engine, the stream proxy and
// the control plane's kind listing can compose; extend a Clone rather than
// the shared instance.
func Default() *Registry { return defaultRegistry() }

// The chain spec language. A spec is a comma-separated list of stages
// instantiated in order between a chain's endpoints:
//
//	null                  identity filter
//	counting              pass-through byte/chunk counter
//	checksum              pass-through CRC-32
//	delay=<duration>      fixed per-frame delay (e.g. delay=5ms)
//	ratelimit=<Bps>       token-bucket shaping to Bps bytes/second
//	transcode=<factor>    audio downsampler (paper PCM format, e.g. transcode=2)
//	thin=<factor>         media thinning: forward 1 data packet in <factor>
//	mono                  stereo -> mono mixdown (paper PCM format)
//	compress=<level>      per-packet flate compression (level -2..9; empty = default)
//	decompress            inverse of compress
//	fec-encode=<n>/<k>    (n,k) FEC block encoder (e.g. fec-encode=6/4)
//	fec-decode            FEC block decoder; chain-only (one decode per session)
//	fec-adapt             marker: the position where this chain's adaptation
//	                      responder splices its repair mechanism (FEC encoder
//	                      or ARQ history); branch specs and live recomposition
//	                      only, at most once per plan
//	arq                   NACK-served retransmission history over the last
//	                      <history> data packets (arq=<history>; empty selects
//	                      the default depth); never downstream of fec-encode
//	jitter=<ms>           reorder/smoothing buffer: hold data packets <ms>
//	                      milliseconds, release in sequence order
//	replay=<n>            catch-up history of the last <n> data frames (the
//	                      arq stage's structure), primed into late-joining
//	                      delivery branches
func newDefaultRegistry() *Registry {
	r := NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err) // registering built-ins into an empty registry cannot fail
		}
	}
	noArg := func(string) (string, error) { return "", nil }
	must(r.Register(Definition{
		Kind:  "null",
		Canon: noArg,
		Build: func(env Env, _ string) (filter.Filter, error) {
			return filter.NewNull(env.StageName("null")), nil
		},
	}))
	must(r.Register(Definition{
		Kind:  "counting",
		Canon: noArg,
		Build: func(env Env, _ string) (filter.Filter, error) {
			return filter.NewCounting(env.StageName("counting")), nil
		},
	}))
	must(r.Register(Definition{
		Kind:  "checksum",
		Canon: noArg,
		Build: func(env Env, _ string) (filter.Filter, error) {
			return filter.NewChecksum(env.StageName("checksum")), nil
		},
	}))
	must(r.Register(Definition{
		Kind: "delay",
		Canon: func(arg string) (string, error) {
			d, err := time.ParseDuration(arg)
			if err != nil {
				return "", fmt.Errorf("compose: delay spec %q: %w", arg, err)
			}
			return d.String(), nil
		},
		Build: func(env Env, arg string) (filter.Filter, error) {
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, err
			}
			return filter.NewDelay(env.StageName("delay"), d), nil
		},
	}))
	must(r.Register(Definition{
		Kind: "ratelimit",
		Canon: func(arg string) (string, error) {
			bps, err := strconv.Atoi(arg)
			if err != nil || bps <= 0 {
				return "", fmt.Errorf("compose: ratelimit spec %q: want a positive bytes/second", arg)
			}
			return strconv.Itoa(bps), nil
		},
		Build: func(env Env, arg string) (filter.Filter, error) {
			bps, err := strconv.Atoi(arg)
			if err != nil {
				return nil, err
			}
			return filter.NewRateLimit(env.StageName("ratelimit"), bps), nil
		},
	}))
	must(r.Register(Definition{
		Kind:  "transcode",
		Canon: canonFactor("transcode"),
		Build: func(env Env, arg string) (filter.Filter, error) {
			factor, err := strconv.Atoi(arg)
			if err != nil {
				return nil, err
			}
			return transcode.NewDownsampleFilter(env.StageName("transcode"), audio.PaperFormat(), factor)
		},
	}))
	must(r.Register(Definition{
		Kind:  "thin",
		Canon: canonFactor("thin"),
		Build: func(env Env, arg string) (filter.Filter, error) {
			factor, err := strconv.Atoi(arg)
			if err != nil {
				return nil, err
			}
			return transcode.NewThinningFilter(env.StageName("thin"), factor)
		},
	}))
	must(r.Register(Definition{
		Kind:  "mono",
		Canon: noArg,
		Build: func(env Env, _ string) (filter.Filter, error) {
			return transcode.NewMonoFilter(env.StageName("mono"), audio.PaperFormat())
		},
	}))
	must(r.Register(Definition{
		Kind: "compress",
		Canon: func(arg string) (string, error) {
			if arg == "" {
				return "", nil // flate.DefaultCompression
			}
			level, err := strconv.Atoi(arg)
			if err != nil || level < flate.HuffmanOnly || level > flate.BestCompression {
				return "", fmt.Errorf("compose: compress spec %q: want a flate level %d..%d", arg, flate.HuffmanOnly, flate.BestCompression)
			}
			return strconv.Itoa(level), nil
		},
		Build: func(env Env, arg string) (filter.Filter, error) {
			level := flate.DefaultCompression
			if arg != "" {
				var err error
				if level, err = strconv.Atoi(arg); err != nil {
					return nil, err
				}
			}
			return transcode.NewCompressFilter(env.StageName("compress"), level)
		},
	}))
	must(r.Register(Definition{
		Kind:  "decompress",
		Canon: noArg,
		Build: func(env Env, _ string) (filter.Filter, error) {
			return transcode.NewDecompressFilter(env.StageName("decompress")), nil
		},
	}))
	must(r.Register(Definition{
		Kind: "fec-encode",
		Canon: func(arg string) (string, error) {
			p, err := parseFECParams(arg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d/%d", p.N, p.K), nil
		},
		Build: func(env Env, arg string) (filter.Filter, error) {
			p, err := parseFECParams(arg)
			if err != nil {
				return nil, err
			}
			return fec.NewEncodeStage(env.StageName("fec-encoder"), p, env.StreamID, env.Groups)
		},
	}))
	must(r.Register(Definition{
		Kind:      "fec-decode",
		Canon:     noArg,
		ChainOnly: true,
		Build: func(env Env, _ string) (filter.Filter, error) {
			return fec.NewDecodeStage(env.StageName("fec-decoder"), env.repairs()), nil
		},
	}))
	must(r.Register(Definition{
		Kind: KindARQ,
		Canon: func(arg string) (string, error) {
			if arg == "" {
				return "", nil // DefaultHistory
			}
			limit, err := strconv.Atoi(arg)
			if err != nil || limit <= 0 {
				return "", fmt.Errorf("compose: arq spec %q: want a positive history depth", arg)
			}
			return strconv.Itoa(limit), nil
		},
		Build: func(env Env, arg string) (filter.Filter, error) {
			limit := 0
			if arg != "" {
				var err error
				if limit, err = strconv.Atoi(arg); err != nil {
					return nil, err
				}
			}
			return arq.NewSenderFilter(env.StageName("arq"), limit), nil
		},
	}))
	must(r.Register(Definition{
		Kind: KindJitter,
		Canon: func(arg string) (string, error) {
			ms, err := strconv.Atoi(arg)
			if err != nil || ms <= 0 {
				return "", fmt.Errorf("compose: jitter spec %q: want a positive delay in milliseconds", arg)
			}
			return strconv.Itoa(ms), nil
		},
		Build: func(env Env, arg string) (filter.Filter, error) {
			ms, err := strconv.Atoi(arg)
			if err != nil {
				return nil, err
			}
			return arq.NewJitterFilter(env.StageName("jitter"), time.Duration(ms)*time.Millisecond), nil
		},
	}))
	must(r.Register(Definition{
		Kind: KindReplay,
		Canon: func(arg string) (string, error) {
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return "", fmt.Errorf("compose: replay spec %q: want a positive frame count", arg)
			}
			return strconv.Itoa(n), nil
		},
		Build: func(env Env, arg string) (filter.Filter, error) {
			n, err := strconv.Atoi(arg)
			if err != nil {
				return nil, err
			}
			return arq.NewSenderFilter(env.StageName("replay"), n), nil
		},
	}))
	must(r.Register(Definition{
		Kind:   KindFECAdapt,
		Marker: true,
		Canon: func(arg string) (string, error) {
			if arg != "" {
				return "", fmt.Errorf("compose: fec-adapt takes no parameter (the policy ladder picks the code); got %q", arg)
			}
			return "", nil
		},
	}))
	return r
}

// canonFactor canonicalizes a positive integer factor argument; empty selects
// 2 (the conventional halving for both downsampling and thinning).
func canonFactor(kind string) func(string) (string, error) {
	return func(arg string) (string, error) {
		if arg == "" {
			return "2", nil
		}
		factor, err := strconv.Atoi(arg)
		if err != nil || factor <= 0 {
			return "", fmt.Errorf("compose: %s spec %q: want a positive integer factor", kind, arg)
		}
		return strconv.Itoa(factor), nil
	}
}

// parseFECParams parses "n/k" into code parameters.
func parseFECParams(arg string) (fec.Params, error) {
	ns, ks, ok := strings.Cut(arg, "/")
	if !ok {
		return fec.Params{}, fmt.Errorf("compose: FEC spec %q: want n/k (e.g. 6/4)", arg)
	}
	n, err1 := strconv.Atoi(strings.TrimSpace(ns))
	k, err2 := strconv.Atoi(strings.TrimSpace(ks))
	if err1 != nil || err2 != nil {
		return fec.Params{}, fmt.Errorf("compose: FEC spec %q: want integers n/k", arg)
	}
	p := fec.Params{K: k, N: n}
	if err := p.Validate(); err != nil {
		return fec.Params{}, err
	}
	return p, nil
}
