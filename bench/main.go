// Command bench is the repository's end-to-end and per-layer benchmark. It
// builds ./cmd/rapidproxy, spawns a fresh proxy per workload run, drives it
// over loopback from this one process through the proxy's outside surfaces
// only (flags, the datagram wire format, batched sockets, the control
// protocol), checks every frame that comes back, and prints every metric by
// name. See README.md for the catalogue and BENCHMARK.json for the contract
// the driver runs it under:
//
//	bash bench/run.sh --workload relay-small --seed 1 --seconds 10 --trace 0
//
// or, from the repository root with the user's own Go caches:
//
//	go run -C bench . [-workload a,b] [-seed N] [-seconds S] [-trace 1] [-repeat 2]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"rapidware/bench/gen"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run, or a comma-separated list (default: all six)")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds  = fs.Int("seconds", 10, "length of the measured window")
		trace    = fs.Int("trace", 0, "1 adds a traced window, the span files and the layer replay")
		repeat   = fs.Int("repeat", 1, "2 runs two full sets and compares them against the bounds")
		root     = fs.String("root", "", "repository root (default: found from the working directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.GOOS != "linux" {
		fmt.Fprintf(os.Stderr, "bench: skipped on %s: the benchmark reads the proxy's CPU and memory from /proc and drives it with recvmmsg/sendmmsg, so it runs on Linux only\n", runtime.GOOS)
		return 2
	}
	if *seconds < 1 || *repeat < 1 || *repeat > 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want -seconds >= 1, -repeat 1 or 2, -trace 0 or 1")
		return 2
	}
	if err := bench(*workload, *seed, *seconds, *trace == 1, *repeat, *root); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// findRoot locates the repository root: the working directory when run by
// the driver, its parent under `go run -C bench .`.
func findRoot(flagged string) (string, error) {
	for _, dir := range []string{flagged, ".", ".."} {
		if dir == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rapidproxy", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cannot find the repository root (no cmd/rapidproxy here or one level up); pass -root")
}

var errIncorrect = errors.New("a correctness check failed (see WRONG/failed above)")

func bench(selection string, seed int64, seconds int, traced bool, repeat int, rootFlag string) error {
	// Two busy goroutines at most, whatever the host: the proxy needs the
	// rest of a small machine.
	runtime.GOMAXPROCS(2)
	var names []string
	if selection != "" {
		names = strings.Split(selection, ",")
	}
	workloads, err := workloadsNamed(names)
	if err != nil {
		return err
	}
	root, err := findRoot(rootFlag)
	if err != nil {
		return err
	}
	for _, dir := range []string{filepath.Join(root, ".bench_build"), filepath.Join(root, "bench", "out")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	bin, err := buildProxy(root)
	if err != nil {
		return err
	}

	sets := make([][]*outcome, repeat)
	correct := true
	for rep := range sets {
		for _, w := range workloads {
			ob, err := runWorkload(runOpts{w: w, seed: seed, seconds: seconds, traced: traced, root: root, bin: bin})
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			oc := ob.outcome()
			oc.print(os.Stdout, traced)
			sets[rep] = append(sets[rep], oc)
			correct = correct && oc.correct()
		}
	}
	if repeat == 2 && !compare(os.Stdout, sets[0], sets[1]) {
		fmt.Println("  (a metric that misses its bound needs a longer window or belongs with the per-layer metrics)")
	}
	if len(workloads) == 1 && repeat == 1 {
		if err := sets[0][0].printJSON(traced); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// printJSON writes the driver's result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (oc *outcome) printJSON(traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, from := endToEnd, oc.e2e
	if traced {
		defs, from = perLayer, oc.layer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{oc.correct(), oc.attempted, oc.failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{from[d.name].value, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// workloadsNamed resolves a comma-separated selection ("" selects all).
func workloadsNamed(names []string) ([]gen.Workload, error) {
	if len(names) == 0 {
		return gen.Workloads(), nil
	}
	var out []gen.Workload
	for _, n := range names {
		w, ok := gen.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		out = append(out, w)
	}
	return out, nil
}
