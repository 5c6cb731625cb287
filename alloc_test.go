package rapidware

import (
	"math"
	"testing"

	"rapidware/internal/engine"
	"rapidware/internal/race"
)

// Allocation bounds on the operations the engine benchmarks time. Each test
// builds its benchmark's setup through the same helper and bounds the
// steady-state allocations per operation with testing.AllocsPerRun. The race
// detector's instrumentation allocates, so the bounds are checked only
// without it.

// requireAllocs fails t when op, built by setup, allocates more than max
// times per call in steady state. AllocsPerRun runs its function once
// unmeasured before measuring it, at GOMAXPROCS 1, so handing it a batch of
// runs ops makes the first batch the warm-up and measures the second exactly.
func requireAllocs(t *testing.T, max float64, runs int, setup func(testing.TB) func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	op := setup(t)
	total := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			op()
		}
	})
	checkAllocs(t, total/float64(runs), max)
}

// checkAllocs fails t when the mean allocations per op, rounded, exceed max.
// Rounded, not truncated as a benchmark's allocs/op is: a path allocating
// once per datagram reads just under 1 per windowed op, because a few
// datagrams are still in flight when the count is taken.
func checkAllocs(t *testing.T, perOp, max float64) {
	t.Helper()
	t.Logf("%.3f allocs/op in steady state, bound %v", perOp, max)
	if math.Round(perOp) > max {
		t.Fatalf("%.3f allocs/op exceeds the bound of %v", perOp, max)
	}
}

func TestEngineMultiSessionAllocs(t *testing.T) {
	requireAllocs(t, 2, 2000, multiSessionEcho)
}

func TestEngineChainDepthAllocs(t *testing.T) {
	for _, tc := range chainCases {
		t.Run(tc.name, func(t *testing.T) {
			requireAllocs(t, tc.allocs, 20000, func(tb testing.TB) func() {
				w, err := newEchoClient(startEchoEngine(tb, engine.Config{Shards: 1, Chain: tc.spec}), 1)
				if err != nil {
					tb.Fatal(err)
				}
				tb.Cleanup(w.close)
				return func() {
					if err := w.step(); err != nil {
						tb.Fatal(err)
					}
				}
			})
		})
	}
}

func TestEngineFanoutBranchesAllocs(t *testing.T) {
	for _, tc := range fanoutCases {
		t.Run(tc.String(), func(t *testing.T) {
			requireAllocs(t, 0, 5000, func(tb testing.TB) func() { return fanoutDelivery(tb, tc) })
		})
	}
}

func TestEngineARQRecoveryAllocs(t *testing.T) {
	requireAllocs(t, 0, 2000, arqRecovery)
}

// TestAdaptiveRetuneAllocs bounds one report -> splice round trip, which
// reads 11 allocations per op (a fresh encoder or a splice-out, and the
// chain's plan republished); the bound leaves 45% headroom.
func TestAdaptiveRetuneAllocs(t *testing.T) {
	requireAllocs(t, 16, 100, adaptiveRetune)
}

func TestEngineAdaptiveTrunkFECAllocs(t *testing.T) {
	requireAllocs(t, 0, 2000, adaptiveTrunkFEC)
}

func TestSessionParkUnparkAllocs(t *testing.T) {
	requireAllocs(t, 80, 1000, sessionParkUnpark)
}

func TestEngineIdleChurnAllocs(t *testing.T) {
	requireAllocs(t, 80, 1000, func(tb testing.TB) func() { return idleChurn(tb, 1024) })
}

// TestBranchReplayPrimeAllocs bounds the join its benchmark times; the leave
// between joins stays out of the count, as the benchmark's StopTimer keeps it
// out of its own. Each AllocsPerRun call measures one join, and the one call
// it makes unmeasured beforehand is the leave. The first runs joins warm up.
func TestBranchReplayPrimeAllocs(t *testing.T) {
	const runs = 50
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	join, leave := branchReplayPrime(t)
	total := 0.0
	for i := 0; i < 2*runs; i++ {
		leaving := true
		allocs := testing.AllocsPerRun(1, func() {
			if leaving {
				leave()
			} else {
				join()
			}
			leaving = !leaving
		})
		if i >= runs {
			total += allocs
		}
	}
	checkAllocs(t, total/runs, 96)
}
