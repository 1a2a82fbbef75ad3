// Command daabench regenerates every table and figure of the reconstructed
// evaluation (see DESIGN.md for the per-experiment index):
//
//	E1 / Table 1   knowledge-base inventory
//	E2 / Table 2   MCS6502 design, DAA vs baselines
//	E3 / Table 3   synthesis statistics on the MCS6502
//	E4 / Figure 1  design evolution through the phases
//	E5 / Figure 2  scaling across the benchmark suite
//	E6 / Table 4   cross-benchmark design quality
//	E7 (extension) knowledge-ablation study
//	E8 (engine)    per-rule match cost and conflict-set statistics
//	E9 (extension) behavioral-vs-RTL cosimulation verdicts
//	E10 (extension) design-space exploration: knob grid vs the paper's point
//
// Usage:
//
//	daabench                 run everything
//	daabench -only E2        run one experiment
//	daabench -bench gcd      use a different benchmark for E2/E3/E4/E8/E10
//
// The suite-wide experiments fan out across a bounded worker pool; the
// output stays byte-deterministic apart from the measured times. Those
// come from a single run, the suite-wide ones from benchmarks sharing the
// pool, so they show where time goes rather than how long a synthesis
// takes: perfbench (see perfbench/README.md) is the repository's timing
// harness. Usage mistakes exit 1; internal failures exit 3.
package main

import (
	"context"
	"flag"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/flow"
)

func main() {
	var (
		only      = flag.String("only", "", "run a single experiment: E1..E10")
		benchName = flag.String("bench", "mcs6502", "benchmark for E2, E3, E4, E8, and E10")
	)
	flag.Parse()
	if err := run(os.Stdout, strings.ToUpper(*only), *benchName); err != nil {
		flow.WriteError(os.Stderr, "daabench", err)
		os.Exit(flow.ExitCode(err))
	}
}

func run(w io.Writer, only, benchName string) error {
	ctx := context.Background()
	switch only {
	case "":
		return exp.All(ctx, w)
	case "E1":
		exp.RenderE1(w)
		return nil
	case "E2":
		return exp.RenderE2(ctx, w, benchName)
	case "E3":
		return exp.RenderE3(ctx, w, benchName)
	case "E4":
		return exp.RenderE4(ctx, w, benchName)
	case "E5":
		return exp.RenderE5(ctx, w)
	case "E6":
		return exp.RenderE6(ctx, w)
	case "E7":
		return exp.RenderE7(ctx, w)
	case "E8", "ENGINE":
		return exp.RenderEngineMetrics(ctx, w, benchName)
	case "E9", "COSIM":
		return exp.RenderE9(ctx, w)
	case "E10", "EXPLORE":
		return exp.RenderE10(ctx, w, benchName)
	default:
		return flow.Usagef("unknown experiment %q (want E1..E10)", only)
	}
}
