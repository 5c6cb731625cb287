package engine

import "rapidware/internal/compose"

// The engine's chain and branch spec language is the compose plane's: a
// comma-separated list of stage specs ("kind" or "kind=arg") validated
// against the shared stage registry. See internal/compose for the kind set
// and the plan IR. These helpers are thin aliases kept for the engine's
// public surface; exactly one spec parser exists in the tree.

// ParseChain validates a trunk chain spec and returns its plan. An empty
// spec yields the empty plan (a pure relay).
func ParseChain(spec string) (compose.Plan, error) {
	return compose.Parse(spec, compose.ModeChain)
}

// ParseBranch validates a delivery-branch tail spec — the same syntax plus
// the branch-only fec-adapt marker stage, which reserves the position where
// the cohort serving a receiver carries its repair stage — and returns its
// plan. The marker position, when present, is plan.Index(compose.KindFECAdapt).
func ParseBranch(spec string) (compose.Plan, error) {
	return compose.Parse(spec, compose.ModeBranch)
}
