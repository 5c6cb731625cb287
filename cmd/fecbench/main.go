// Command fecbench regenerates the paper's evaluation figures and the
// supplementary experiments of internal/experiment, printing the same series
// and tables the paper reports.
//
// Usage:
//
//	fecbench -experiment figure7      # Figure 7: FEC(6,4) audio trace at 25 m
//	fecbench -experiment distance     # E2: loss vs distance, with and without FEC
//	fecbench -experiment adaptive     # E2b: demand-driven FEC while roaming
//	fecbench -experiment groupsize    # E4: (n,k) sweep
//	fecbench -experiment liveinsert   # E3: live filter insertion integrity & latency
//	fecbench -experiment repair       # E7: FEC vs NACK-based ARQ vs no repair
//	fecbench -experiment all
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"rapidware/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("fecbench: %v", err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fecbench", flag.ContinueOnError)
	var (
		which   = fs.String("experiment", "all", "figure7|distance|adaptive|groupsize|liveinsert|repair|all")
		seconds = fs.Float64("seconds", 0, "override audio duration in seconds (0 = experiment default)")
		seed    = fs.Int64("seed", 0, "override random seed (0 = experiment default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	runners := map[string]func() error{
		"figure7": func() error {
			cfg := experiment.DefaultFigure7Config()
			if *seconds > 0 {
				cfg.AudioSeconds = *seconds
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiment.RunFigure7(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, res.Format())
			return nil
		},
		"distance": func() error {
			cfg := experiment.DefaultDistanceSweepConfig()
			if *seconds > 0 {
				cfg.AudioSeconds = *seconds
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			points, err := experiment.RunDistanceSweep(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiment.FormatDistanceSweep(points))
			return nil
		},
		"adaptive": func() error {
			cfg := experiment.DefaultAdaptiveWalkConfig()
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiment.RunAdaptiveWalk(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, res.Format())
			return nil
		},
		"groupsize": func() error {
			cfg := experiment.DefaultGroupSizeSweepConfig()
			if *seconds > 0 {
				cfg.AudioSeconds = *seconds
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			points, err := experiment.RunGroupSizeSweep(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiment.FormatGroupSizeSweep(points))
			return nil
		},
		"liveinsert": func() error {
			res, err := experiment.RunLiveInsertion(experiment.DefaultLiveInsertionConfig())
			if err != nil {
				return err
			}
			fmt.Fprintln(out, res.Format())
			return nil
		},
		"repair": func() error {
			cfg := experiment.DefaultRepairComparisonConfig()
			if *seconds > 0 {
				cfg.AudioSeconds = *seconds
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiment.RunRepairComparison(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, res.Format())
			return nil
		},
	}

	if *which == "all" {
		for _, name := range []string{"figure7", "distance", "adaptive", "groupsize", "liveinsert", "repair"} {
			fmt.Fprintf(out, "==== %s ====\n", name)
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	runner, ok := runners[*which]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *which)
	}
	return runner()
}
