// Package adapt is the transport-agnostic half of RAPIDware's closed-loop
// adaptation plane: the policy ladder that maps an observed loss rate to the
// (n,k) erasure code that should protect a stream, as explored by the paper's
// companion adaptive-FEC work ([16]). The policy knows nothing about proxies,
// chains or sockets — observers feed it loss rates, responders apply the code
// it selects — so the same ladder drives the responder raplets
// (internal/raplet) and the multi-session engine's per-receiver adaptation
// loops (internal/engine), which apply every level change by swapping in an
// FEC encoder with the selected code.
package adapt

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"rapidware/internal/fec"
)

// Policy maps an observed loss rate to the (n,k) code that should protect the
// stream. The zero value is invalid; use DefaultPolicy or ParsePolicy.
type Policy struct {
	// Levels are (threshold, params) pairs: the strongest level whose
	// threshold is at or below the observed loss rate is selected. A level
	// with K == N disables FEC.
	Levels []Level
}

// Level is one rung of a policy ladder.
type Level struct {
	// LossAtLeast is the minimum observed loss rate for this level to apply.
	LossAtLeast float64
	// Params is the code used at this level.
	Params fec.Params
}

// DefaultPolicy returns a ladder modelled on the paper's environment: no FEC
// on a clean link, the paper's (6,4) at a few percent loss, and progressively
// stronger codes as the link degrades.
func DefaultPolicy() Policy {
	return Policy{Levels: []Level{
		{LossAtLeast: 0, Params: fec.Params{K: 1, N: 1}},
		{LossAtLeast: 0.01, Params: fec.Params{K: 4, N: 5}},
		{LossAtLeast: 0.03, Params: fec.Params{K: 4, N: 6}},
		{LossAtLeast: 0.10, Params: fec.Params{K: 4, N: 8}},
		{LossAtLeast: 0.25, Params: fec.Params{K: 4, N: 12}},
	}}
}

// Validate checks every level's parameters.
func (p Policy) Validate() error {
	if len(p.Levels) == 0 {
		return fmt.Errorf("adapt: policy needs at least one level")
	}
	for i, l := range p.Levels {
		if err := l.Params.Validate(); err != nil {
			return fmt.Errorf("adapt: level %d: %w", i, err)
		}
		if l.LossAtLeast < 0 || l.LossAtLeast > 1 {
			return fmt.Errorf("adapt: level %d threshold %v out of range", i, l.LossAtLeast)
		}
	}
	return nil
}

// Select returns the code for the observed loss rate: the level with the
// highest threshold the rate has reached, falling back to the
// lowest-threshold level when the rate is below every rung. Select runs on
// every receiver report, so it is a single allocation-free pass; ties on
// equal thresholds resolve to the earlier level for determinism.
func (p Policy) Select(lossRate float64) fec.Params {
	var chosen fec.Params
	best := -1.0
	for _, l := range p.Levels {
		if l.LossAtLeast <= lossRate && l.LossAtLeast > best {
			best, chosen = l.LossAtLeast, l.Params
		}
	}
	if best >= 0 {
		return chosen
	}
	// Below every rung (thresholds all positive): fall back to the
	// lowest-threshold level.
	lowest := math.Inf(1)
	for _, l := range p.Levels {
		if l.LossAtLeast < lowest {
			lowest, chosen = l.LossAtLeast, l.Params
		}
	}
	return chosen
}

// String renders the ladder in the textual policy format accepted by
// ParsePolicy, levels in ascending threshold order.
func (p Policy) String() string {
	levels := append([]Level(nil), p.Levels...)
	sort.Slice(levels, func(i, j int) bool { return levels[i].LossAtLeast < levels[j].LossAtLeast })
	parts := make([]string, len(levels))
	for i, l := range levels {
		parts[i] = fmt.Sprintf("%g:%d/%d", l.LossAtLeast, l.Params.N, l.Params.K)
	}
	return strings.Join(parts, ",")
}

// ParsePolicy parses a textual policy ladder. Levels are separated by commas
// or newlines, each "<loss>:<n>/<k>" — the loss threshold at which the (n,k)
// code engages. "#" starts a comment (to end of line). Example:
//
//	0:1/1, 0.01:5/4, 0.03:6/4, 0.10:8/4, 0.25:12/4
func ParsePolicy(text string) (Policy, error) {
	var p Policy
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		for _, part := range strings.Split(line, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			lossStr, nk, ok := strings.Cut(part, ":")
			if !ok {
				return Policy{}, fmt.Errorf("adapt: level %q: want <loss>:<n>/<k>", part)
			}
			loss, err := strconv.ParseFloat(strings.TrimSpace(lossStr), 64)
			if err != nil {
				return Policy{}, fmt.Errorf("adapt: level %q: bad loss threshold: %w", part, err)
			}
			ns, ks, ok := strings.Cut(nk, "/")
			if !ok {
				return Policy{}, fmt.Errorf("adapt: level %q: want <loss>:<n>/<k>", part)
			}
			n, err1 := strconv.Atoi(strings.TrimSpace(ns))
			k, err2 := strconv.Atoi(strings.TrimSpace(ks))
			if err1 != nil || err2 != nil {
				return Policy{}, fmt.Errorf("adapt: level %q: want integers n/k", part)
			}
			p.Levels = append(p.Levels, Level{LossAtLeast: loss, Params: fec.Params{K: k, N: n}})
		}
	}
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// LoadPolicyFile reads and parses a policy ladder from a file.
func LoadPolicyFile(path string) (Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Policy{}, fmt.Errorf("adapt: read policy: %w", err)
	}
	p, err := ParsePolicy(string(data))
	if err != nil {
		return Policy{}, fmt.Errorf("adapt: policy file %s: %w", path, err)
	}
	return p, nil
}
