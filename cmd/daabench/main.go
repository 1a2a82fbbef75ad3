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
//	STAGES         per-stage pipeline wall time (internal/flow)
//
// Usage:
//
//	daabench                 run everything
//	daabench -only E2        run one experiment
//	daabench -only stages    print the pipeline stage-timing table
//	daabench -bench gcd      use a different benchmark for E2/E3/E4/E8/E10/STAGES
//	daabench -json             emit machine-readable per-benchmark results
//	daabench -json -exhaustive same, on the exhaustive matcher
//	daabench -json -verify     same, with cosim verdicts and stage timings
//
// With -json the tables are replaced by one JSON document with component
// counts, firings, match calls, match and elapsed time, Rete network
// activity, pipeline stage timings, and flow-cache hit/miss counts per
// benchmark and phase, for recording the bench trajectory (BENCH_*.json)
// from CI. -exhaustive reruns the suite on the exhaustive matcher, so CI
// can diff pattern tests and match time against the compiled Rete
// network; -verify adds the emit and cosim stages so the equivalence
// verdict and cosim timing ride in the same record. The suite-wide
// experiments fan out across a bounded worker pool; the output stays
// byte-deterministic apart from the measured times. Usage mistakes exit
// 1; internal failures exit 3.
//
// Loadgen mode drives a running daad daemon (cmd/daad) instead of
// synthesizing in-process, replaying the embedded suite concurrently and
// reporting throughput and latency percentiles — the serving-path
// benchmark:
//
//	daabench -loadgen -addr http://localhost:8547            human summary
//	daabench -loadgen -addr ... -c 32 -n 256 -json           JSON report
//	daabench -loadgen -addr ... -no-cache                    force full syntheses
//	daabench -loadgen -addr ... -explore                     mix in /v1/explore sweeps
//
// With -explore every fourth request becomes a small fixed-grid
// POST /v1/explore sweep over the cycled benchmark (two allocators crossed
// with cleanup on/off), so the serving-path numbers cover the
// design-space-exploration endpoint alongside plain synthesis.
package main

import (
	"context"
	"flag"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/flow"
)

func main() {
	var (
		only      = flag.String("only", "", "run a single experiment: E1..E10, or 'stages'")
		benchName = flag.String("bench", "mcs6502", "benchmark for E2, E3, E4, E8, E10, and stages")
		asJSON    = flag.Bool("json", false, "emit machine-readable per-benchmark results instead of tables")
		exhaust   = flag.Bool("exhaustive", false, "with -json: recompute the conflict set from scratch every cycle (baseline for match-cost diffs)")
		verify    = flag.Bool("verify", false, "with -json: run the emit and cosim stages and record the equivalence verdict per benchmark")
		loadgen   = flag.Bool("loadgen", false, "replay the embedded suite against a daad daemon (see -addr, -c, -n)")
		addr      = flag.String("addr", "", "daad base URL for -loadgen (e.g. http://localhost:8547)")
		clients   = flag.Int("c", 32, "concurrent clients for -loadgen")
		requests  = flag.Int("n", 128, "total requests for -loadgen (cycled over the suite)")
		noCache   = flag.Bool("no-cache", false, "ask the daemon to bypass its design cache (-loadgen)")
		clusterFl = flag.Bool("cluster", false, "with -loadgen: -addr is a coordinator; report per-worker shard heat and failovers")
		exploreFl = flag.Bool("explore", false, "with -loadgen: make every fourth request a small /v1/explore sweep")
	)
	flag.Parse()
	var err error
	if *loadgen {
		err = runLoadgen(os.Stdout, loadOptions{
			addr:        *addr,
			concurrency: *clients,
			requests:    *requests,
			noCache:     *noCache,
			cluster:     *clusterFl,
			explore:     *exploreFl,
			asJSON:      *asJSON,
		})
	} else {
		err = run(os.Stdout, strings.ToUpper(*only), *benchName, *asJSON, *verify, core.Options{
			ExhaustiveMatch: *exhaust,
		})
	}
	if err != nil {
		flow.WriteError(os.Stderr, "daabench", err)
		os.Exit(flow.ExitCode(err))
	}
}

func run(w io.Writer, only, benchName string, asJSON, verify bool, copt core.Options) error {
	ctx := context.Background()
	if asJSON {
		if only != "" {
			return flow.Usagef("-json runs the whole suite; drop -only")
		}
		return exp.WriteJSONOpts(ctx, w, copt, verify)
	}
	if copt.ExhaustiveMatch {
		return flow.Usagef("-exhaustive records the matcher baseline; combine it with -json")
	}
	if verify {
		return flow.Usagef("-verify records cosim verdicts; combine it with -json (or run -only E9 for the table)")
	}
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
	case "STAGES":
		return exp.RenderStageTiming(ctx, w, benchName)
	default:
		return flow.Usagef("unknown experiment %q (want E1..E10, or stages)", only)
	}
}
