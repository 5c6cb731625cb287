#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. It keeps everything the benchmark
# writes inside the checkout — Go's build and module caches included — by
# pointing them at .bench_build/, builds the harness there (the harness
# builds ./cmd/rapidproxy the same way), and runs it with the driver's flags:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The first run in a fresh checkout compiles the standard library into the
# private cache (about a minute on two cores); later runs are no-op builds.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" -root "$root" "$@"
