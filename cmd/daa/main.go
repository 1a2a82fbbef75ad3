// Command daa synthesizes a register-transfer design from an ISPS
// behavioral description, reproducing the flow of the VLSI Design
// Automation Assistant (Kowalski & Thomas, DAC 1983).
//
// Usage:
//
//	daa -in design.isps                 synthesize a file with the DAA
//	daa -bench mcs6502                  synthesize an embedded benchmark
//	daa -bench gcd -allocator leftedge  use a baseline allocator
//	daa -bench gcd -trace               print every rule firing
//	daa -bench gcd -control             print the derived control table
//	daa -bench gcd -verilog             emit the datapath as Verilog
//	daa -bench gcd -verify              co-simulate behavioral vs RTL, report equivalence
//	daa -bench gcd -emit-verilog f.v    write the emitted Verilog artifact to a file
//	daa -bench gcd -flow                emit the controller graph as DOT
//	daa -bench gcd -no-cleanup          skip the global-improvement phase
//	daa -bench gcd -engine-stats        print the production-engine metrics
//	daa -bench gcd -stage-timing        print per-stage pipeline wall time
//	daa -bench gcd -explore 'allocator=daa,leftedge cleanup=true,false'
//	                                    sweep a knob grid, print the Pareto front
//	daa -knobs                          list the synthesis knob space
//	daa -bench gcd -explain "reg X"     why does this component exist?
//	daa -bench gcd -journal run.jnl     record the effect journal to a file
//	daa -lint-rules                     statically lint the embedded rule base, exit 2 on findings
//
// Input problems (unparsable or ill-typed ISPS) are reported with
// file:line:col positions and a caret under the offending column, and exit
// with status 2; usage mistakes exit 1; internal failures exit 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/isps"
	"repro/internal/serve"
)

// options collects the command-line configuration of one daa invocation.
type options struct {
	inFile      string
	benchName   string
	list        bool
	allocator   string
	trace       bool
	noCleanup   bool
	stats       bool
	engineStats bool
	control     bool
	verilog     bool
	verify      bool
	emitVerilog string
	cosimSeed   uint64
	flow        bool
	stageTiming bool
	explain     string
	journal     string
	remote      string
	deadline    time.Duration
	lintRules   bool
	exploreSpec string
	exploreJSON bool
	knobs       bool
}

func main() {
	var o options
	flag.StringVar(&o.inFile, "in", "", "ISPS source file to synthesize")
	flag.StringVar(&o.benchName, "bench", "", "embedded benchmark to synthesize (see -list)")
	flag.BoolVar(&o.list, "list", false, "list embedded benchmarks and exit")
	flag.StringVar(&o.allocator, "allocator", "daa", "allocator: daa, leftedge, or naive")
	flag.BoolVar(&o.trace, "trace", false, "print every rule firing (daa only)")
	flag.BoolVar(&o.noCleanup, "no-cleanup", false, "skip the global-improvement phase (daa only)")
	flag.BoolVar(&o.stats, "stats", true, "print synthesis statistics (daa only)")
	flag.BoolVar(&o.engineStats, "engine-stats", false, "print production-engine metrics: per-rule match cost, conflict-set statistics (daa only)")
	flag.BoolVar(&o.control, "control", false, "print the derived control-signal table")
	flag.BoolVar(&o.verilog, "verilog", false, "emit the datapath as structural Verilog and exit")
	flag.BoolVar(&o.verify, "verify", false, "co-simulate the behavioral description against the synthesized design and report an equivalence verdict (a mismatch exits 3)")
	flag.StringVar(&o.emitVerilog, "emit-verilog", "", "write the emit stage's Verilog to this file, alongside the report")
	flag.Uint64Var(&o.cosimSeed, "cosim-seed", 0, "stimulus seed for -verify (0 = default)")
	flag.BoolVar(&o.flow, "flow", false, "emit the controller state graph as Graphviz and exit")
	flag.BoolVar(&o.stageTiming, "stage-timing", false, "print wall time per pipeline stage")
	flag.StringVar(&o.explain, "explain", "", "explain components whose label contains this selector (\"all\" for every component); prints their rule-firing provenance instead of the report")
	flag.StringVar(&o.journal, "journal", "", "write the effect journal of the run to this file as text")
	flag.BoolVar(&o.lintRules, "lint-rules", false, "statically lint the embedded knowledge base (unbound variables, dead alpha tests, shadowed rules) and exit (findings exit 2)")
	flag.StringVar(&o.remote, "remote", "", "synthesize via a daad daemon at this base URL (e.g. http://localhost:8547)")
	flag.DurationVar(&o.deadline, "deadline", 0, "per-request synthesis deadline (remote mode; 0 = server default)")
	flag.StringVar(&o.exploreSpec, "explore", "", "sweep a knob grid and print the Pareto front, e.g. 'allocator=daa,leftedge scheduler=list,asap' (see -knobs; works with -remote)")
	flag.BoolVar(&o.exploreJSON, "json", false, "with -explore, print the daemon-identical JSON body instead of the table")
	flag.BoolVar(&o.knobs, "knobs", false, "list the synthesis knob space (grid axes for -explore) and exit")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		flow.WriteError(os.Stderr, "daa", err)
		os.Exit(flow.ExitCode(err))
	}
}

func run(w io.Writer, o options) error {
	if o.list {
		for _, n := range bench.Names() {
			fmt.Fprintln(w, n)
		}
		return nil
	}
	if o.lintRules {
		return runLintRules(w)
	}
	if o.knobs {
		return runKnobs(w)
	}
	in, err := input(o.inFile, o.benchName)
	if err != nil {
		return err
	}
	if o.exploreSpec != "" {
		return runExplore(w, in, o)
	}
	if (o.allocator == flow.AllocLeftEdge || o.allocator == flow.AllocNaive) && (o.explain != "" || o.journal != "") {
		// Journal and provenance record rule firings; a baseline fires none.
		return flow.Usagef("-explain and -journal need -allocator daa: the %s allocator fires no rules", o.allocator)
	}
	if o.remote != "" {
		return runRemote(w, in, o)
	}
	opt, err := o.flowOptions()
	if err != nil {
		return err
	}
	// Machine-readable outputs suppress the report; -explain replaces it
	// with the provenance listing.
	machine := o.verilog || o.flow || o.explain != ""
	if o.trace && !machine {
		opt.Core.Trace = w
	}
	ctx := context.Background()
	if !machine {
		// Report the description as loaded, before the DAA's trace rules
		// refine their copy. FrontEnd reads the artifact cache Compile
		// uses and copies nothing.
		tr, err := flow.FrontEnd(ctx, in)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "value trace: %s\n\n", tr.Stats())
	}

	res, err := flow.Compile(ctx, in, opt)
	if err != nil {
		return err
	}
	if res.Synth != nil && !machine {
		if o.stats {
			writeStats(w, res.Synth.Stats)
		}
		if o.engineStats {
			writeEngineStats(w, res.Synth.Stats)
		}
	}

	if o.journal != "" {
		if err := writeJournal(o.journal, res); err != nil {
			return err
		}
	}
	if o.emitVerilog != "" {
		if err := os.WriteFile(o.emitVerilog, []byte(res.Verilog), 0o644); err != nil {
			return err
		}
	}
	if o.explain != "" {
		var sb strings.Builder
		n := res.Provenance().Explain(&sb, o.explain)
		writeExplain(w, res.Design.Name, o.explain, n, sb.String())
		return cosimVerdict(w, res.Cosim, true)
	}

	if o.verilog {
		fmt.Fprint(w, res.Verilog) // rendered by the pipeline's emit stage
		return cosimVerdict(w, res.Cosim, true)
	}
	if o.flow {
		if err := res.Design.WriteControlFlowDot(w); err != nil {
			return err
		}
		return cosimVerdict(w, res.Cosim, true)
	}

	// The deterministic report block is shared with the daemon
	// (internal/serve), so daad responses stay byte-identical to local runs.
	fmt.Fprint(w, serve.RenderReport(res))
	if o.stageTiming {
		fmt.Fprintln(w)
		res.Trace.Write(w)
	}
	if o.control {
		fmt.Fprintln(w, "\ncontrol table:")
		if err := res.Control.Write(w); err != nil {
			return err
		}
	}
	return cosimVerdict(w, res.Cosim, false)
}

// flowOptions builds the pipeline options of a local run from the flags.
func (o options) flowOptions() (flow.Options, error) {
	switch o.allocator {
	case flow.AllocDAA, flow.AllocLeftEdge, flow.AllocNaive:
	default:
		return flow.Options{}, flow.Usagef("unknown allocator %q (want daa, leftedge, or naive)", o.allocator)
	}
	return flow.Options{
		Allocator: o.allocator,
		Core: core.Options{
			DisableCleanup: o.noCleanup,
			Journal:        o.explain != "" || o.journal != "",
		},
		EmitVerilog: o.verilog || o.emitVerilog != "",
		Cosim:       o.verify,
		CosimSeed:   o.cosimSeed,
	}, nil
}

// runLintRules statically lints the embedded knowledge base (every phase's
// rules registered over that phase's declared working memory) and reports
// findings as positioned diagnostics: exit 0 and a one-line summary when clean,
// exit 2 with one diagnostic per finding otherwise. CI runs this under
// -race next to the analyzer suite.
func runLintRules(w io.Writer) error {
	findings := core.LintKnowledgeBase()
	if len(findings) == 0 {
		kb := core.KnowledgeBase()
		total := 0
		for _, ph := range kb {
			total += len(ph.Rules)
		}
		fmt.Fprintf(w, "rule base clean: %d rules across %d phases, 0 findings\n", total, len(kb))
		return nil
	}
	var dl flow.DiagnosticList
	for _, f := range findings {
		dl = append(dl, &flow.Diagnostic{
			Stage: "lint-rules",
			Pos:   isps.Pos{File: f.Phase},
			Msg:   f.Finding.String(),
		})
	}
	return dl
}

// cosimVerdict prints the equivalence block of a -verify run (suppressed
// in machine-output modes, where the stream must stay pure) and turns a
// mismatch into an internal-failure exit: a design that disagrees with its
// own behavioral description must not pass silently.
func cosimVerdict(w io.Writer, rep *flow.CosimReport, machine bool) error {
	if rep == nil {
		return nil
	}
	if !machine {
		fmt.Fprintln(w)
		rep.Write(w)
	}
	if !rep.Equivalent {
		return fmt.Errorf("cosimulation mismatch: %s", rep.Summary())
	}
	return nil
}

// input resolves the -in/-bench flags to a compilation unit. Flag misuse
// is a usage error (exit 1); an unreadable file is an input problem
// (exit 2).
func input(inFile, benchName string) (flow.Input, error) {
	switch {
	case inFile != "" && benchName != "":
		return flow.Input{}, flow.Usagef("use either -in or -bench, not both")
	case benchName != "":
		in, err := bench.Input(benchName)
		if err != nil {
			return flow.Input{}, flow.Usagef("%v", err)
		}
		return in, nil
	case inFile != "":
		return flow.FileInput(inFile)
	default:
		return flow.Input{}, flow.Usagef("nothing to synthesize: pass -in file.isps or -bench name (see -list)")
	}
}

// writeExplain prints the rule-firing provenance listing of the components
// matching sel under a one-line summary. Local runs and -remote share it,
// and the listing comes from the same core renderer the daemon's
// GET /v1/explain uses, so the text is identical in both modes.
func writeExplain(w io.Writer, design, sel string, matched int, listing string) {
	fmt.Fprintf(w, "provenance of %s: %d component(s) match %q\n\n%s", design, matched, sel, listing)
}

// writeJournal records the run's effect journal to a file in the prod
// text format.
func writeJournal(path string, res *flow.Result) error {
	var b strings.Builder
	res.Journal().WriteText(&b)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// writeStats prints the per-phase synthesis statistics.
func writeStats(w io.Writer, stats core.Stats) {
	fmt.Fprintln(w, "synthesis statistics:")
	for _, ph := range stats.Phases {
		fmt.Fprintf(w, "  %-12s rules=%-3d firings=%-5d wm-peak=%-5d matches=%-8d %v\n",
			ph.Name, ph.Rules, ph.Firings, ph.WMPeak, ph.Engine.MatchCalls, ph.Elapsed.Round(1000*1000))
	}
	fmt.Fprintf(w, "  total firings %d in %v (%.0f/sec), %d pattern tests\n\n",
		stats.TotalFirings, stats.Elapsed.Round(1000*1000),
		stats.FiringsPerSecond(), stats.TotalMatchCalls)
}

// writeEngineStats prints the production-engine observability section: the
// matcher's cost per phase, the match network's shape and activity, and the
// most expensive rules to match.
func writeEngineStats(w io.Writer, stats core.Stats) {
	fmt.Fprintln(w, "engine statistics (compiled Rete network):")
	for _, ph := range stats.Phases {
		m := ph.Engine
		fmt.Fprintf(w, "  %-12s deltas=%-6d rebuilds=%-4d added=%-6d invalidated=%-6d cs-peak=%-5d cs-mean=%.1f\n",
			ph.Name, m.Deltas, m.Rebuilds, m.Added, m.Invalidated, m.ConflictPeak, m.ConflictMean)
	}
	agg := stats.EngineMetrics()
	fmt.Fprintf(w, "  network: alpha tests=%d mems=%d (patterns=%d) join nodes=%d neg nodes=%d\n",
		agg.AlphaTests, agg.AlphaMems, agg.AlphaPatterns, agg.JoinNodes, agg.NegNodes)
	fmt.Fprintf(w, "  activity: alpha evals=%d join tests=%d tokens +%d -%d (live %d)\n",
		agg.AlphaEvals, agg.JoinTests, agg.TokenAsserts, agg.TokenRetracts, agg.TokensLive)
	fmt.Fprintln(w, "  top rules by match time:")
	for _, r := range agg.TopRulesByMatchTime(10) {
		fmt.Fprintf(w, "    %-40s %-12s firings=%-5d deltas=%-6d matches=%-8d %v\n",
			r.Name, r.Category, r.Firings, r.Deltas, r.MatchCalls, r.MatchTime.Round(1000))
	}
	fmt.Fprintln(w)
}
