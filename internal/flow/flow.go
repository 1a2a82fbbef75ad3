// Package flow is the staged synthesis pipeline: the one front-to-back
// compile path from ISPS source to a costed register-transfer design.
//
// The DAA paper describes a single flow — ISPS description → Value Trace →
// register-transfer structure — and every consumer of this repository
// (CLIs, experiment harness, benchmarks, examples) runs it through
// Compile:
//
//	res, err := flow.Compile(ctx, flow.Input{Name: "gcd.isps", Source: src}, flow.Options{})
//
// Compile runs a memoized front half — parse → sema → build (Value Trace
// construction and validation) — and then a composable back-end stage
// list: the mandatory allocate (DAA or a baseline allocator) → validate
// (rtl.Design.Validate: structure, bindings and interconnect, deriving the
// control table onto Result.Control) → cost spine, plus the optional
// emit (structural Verilog onto Result.Verilog) and cosim (behavioral-
// vs-RTL equivalence verdict onto Result.Cosim) stages selected through
// Options. Every stage is a named unit with three cross-cutting concerns:
//
//   - Diagnostics. Input errors come back as a DiagnosticList with
//     file/line/column positions threaded up from internal/isps, and the
//     value-trace/register-transfer validation failures wrapped under
//     their stage names, instead of bare error chains.
//   - Cancellation. The context is checked between stages and, inside the
//     allocate stage, between production-engine cycles, so a hung or
//     runaway rule set returns the context's error instead of spinning.
//   - Observability. Result.Trace records per-stage wall time and size
//     notes, extending the per-phase statistics core already reports.
//
// The front half of the pipeline (parse+sema+build) is memoized in a
// content-hash-keyed artifact cache, so repeated compilations of the same
// source (the experiment harness compiles the MCS6502 nine-plus times) pay
// for the front end once. The artifact also keeps the DAA's phase 0, trace
// refinement, as the CMU front end did: the first DAA compile of a source
// refines its trace once (core.Refine), and every later one binds that
// refinement (core.SynthesizeRefined) without copying the trace or
// rerunning the phase. The baselines read the one cached plain trace, and
// a DAA compile that observes phase 0 (a firing trace, the matcher
// cross-check, a journal) refines a copy of its own. RunAll executes
// independent compilations across a bounded worker pool.
package flow

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/isps"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// Stage names, in pipeline order. Parse through build form the memoized
// front half; the rest are back-end stages assembled per option set (see
// backStages), with emit and cosim present only when selected.
const (
	StageParse    = "parse"
	StageSema     = "sema"
	StageBuild    = "build"
	StageAllocate = "allocate"
	StageValidate = "validate"
	StageCost     = "cost"
	StageEmit     = "emit"
	StageCosim    = "cosim"
	StageLint     = "lint" // off-pipeline: ispsfmt -lint / daad /v1/lint
)

// Allocator names accepted by Options.Allocator.
const (
	AllocDAA      = "daa"
	AllocLeftEdge = "leftedge"
	AllocNaive    = "naive"
)

// Input is one ISPS compilation unit. Name is used for positions in
// diagnostics and as part of the artifact-cache key.
type Input struct {
	Name   string
	Source string
}

// FileInput reads an ISPS source file into an Input.
func FileInput(path string) (Input, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Input{}, err
	}
	return Input{Name: path, Source: string(b)}, nil
}

// Options configures a compilation.
type Options struct {
	// Allocator selects the back end: AllocDAA (default, the paper's
	// knowledge-based allocator), AllocLeftEdge, or AllocNaive.
	Allocator string
	// Core configures the DAA allocator (trace/cleanup ablations, extra
	// rules, firing trace, matcher cross-check). Its Limits also bound the
	// baselines' scheduler: all three allocators schedule under the same
	// limits. Its other fields are ignored by the baselines.
	Core core.Options
	// Scheduler names the baselines' control-step scheduling policy
	// (sched.SchedList, the default; SchedASAP; SchedALAP). Ignored by the
	// DAA, whose control phase places operators by rule.
	Scheduler string
	// Model overrides the gate-equivalent cost model (default
	// cost.Default).
	Model *cost.Model
	// EmitVerilog adds the emit stage: the synthesized datapath renders
	// as structural Verilog, carried on Result.Verilog.
	EmitVerilog bool
	// Cosim adds the cosim stage: seeded stimulus runs through the
	// behavioral interpreter on the AST and the register-transfer
	// simulator on the design, and the equivalence verdict is carried on
	// Result.Cosim. A mismatch does not fail Compile.
	Cosim bool
	// CosimSeed/CosimVectors/CosimCycles tune the cosim stimulus; zero
	// values mean the Default* constants. Ignored unless Cosim is set
	// (and excluded from Options.Key then, so they cannot split caches).
	CosimSeed    uint64
	CosimVectors int
	CosimCycles  int
}

// cosimParams lowers the option fields onto the cosim engine's
// parameters, defaults applied — the one normalization Options.Key and
// the cosim stage both use.
func (o Options) cosimParams() CosimParams {
	return CosimParams{Seed: o.CosimSeed, Vectors: o.CosimVectors, Cycles: o.CosimCycles}.withDefaults()
}

// StageInfo is one stage of a compilation's timing trace.
type StageInfo struct {
	Stage   string
	Elapsed time.Duration
	Cached  bool   // served from the artifact cache (front stages only)
	Note    string // human-readable size summary
}

// Trace records where a compilation spent its time, stage by stage. It
// extends the per-phase statistics the DAA core reports (core.PhaseStats,
// prod.Metrics) with the stages around the allocator.
type Trace struct {
	Stages []StageInfo
	Total  time.Duration
}

func (t *Trace) add(stage string, elapsed time.Duration, cached bool, note string) {
	t.Stages = append(t.Stages, StageInfo{Stage: stage, Elapsed: elapsed, Cached: cached, Note: note})
}

// Stage returns the named stage's record, if present.
func (t Trace) Stage(name string) (StageInfo, bool) {
	for _, s := range t.Stages {
		if s.Stage == name {
			return s, true
		}
	}
	return StageInfo{}, false
}

// Write renders the stage-timing table, the output of daa -stage-timing.
func (t Trace) Write(w io.Writer) {
	fmt.Fprintln(w, "stage timing:")
	for _, s := range t.Stages {
		cached := ""
		if s.Cached {
			cached = "  (cached)"
		}
		note := ""
		if s.Note != "" {
			note = "  " + s.Note
		}
		fmt.Fprintf(w, "  %-10s %10v%s%s\n", s.Stage, s.Elapsed.Round(time.Microsecond), cached, note)
	}
	fmt.Fprintf(w, "  %-10s %10v\n", "total", t.Total.Round(time.Microsecond))
}

// Result is a completed compilation.
type Result struct {
	Input Input
	// AST is the analyzed syntax tree. When the compilation hit the
	// artifact cache this is shared with other compilations of the same
	// source: treat it as read-only.
	AST *isps.Program
	// Design is the synthesized register-transfer structure. Its Trace is
	// the value trace it binds: for the DAA, the source's one cached
	// refinement, or a refined copy of its own when the compile observed
	// phase 0; for the baselines and a DAA compile with its trace rules
	// off, the cached plain trace. The cached forms are shared with every
	// compilation of the source: treat the trace as read-only.
	Design *rtl.Design
	// Control is the design's control table, derived by the validate
	// stage; every report and artifact of the controller reads it.
	Control rtl.Control
	// Synth carries the DAA's rule-firing statistics and engine metrics;
	// nil for the baseline allocators.
	Synth *core.Result
	// Cost is the design's gate-equivalent breakdown.
	Cost cost.Breakdown
	// Verilog is the datapath as structural Verilog; empty unless
	// Options.EmitVerilog selected the emit stage.
	Verilog string
	// Cosim is the behavioral-vs-RTL equivalence verdict; nil unless
	// Options.Cosim selected the cosim stage.
	Cosim *CosimReport
	// Trace is the per-stage timing record of this compilation.
	Trace Trace
}

// Journal returns the run's effect journal, or nil when the DAA did not
// run or Options.Core.Journal was off.
func (r *Result) Journal() *core.Journal {
	if r.Synth == nil {
		return nil
	}
	return r.Synth.Journal
}

// Provenance returns the run's provenance index, or nil when the DAA did
// not run or Options.Core.Journal was off.
func (r *Result) Provenance() *core.Provenance {
	if r.Synth == nil {
		return nil
	}
	return r.Synth.Provenance
}

// Compile runs the full pipeline on one input. Input errors (parse, sema,
// trace build/validation, design validation) return a DiagnosticList;
// context cancellation returns the context's error unwrapped.
func Compile(ctx context.Context, in Input, opt Options) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{Input: in}
	art, stages, err := frontStages(in)
	if err != nil {
		return nil, err
	}
	res.AST = art.ast
	res.Trace.Stages = stages

	if err := runBack(ctx, in, opt, art, res); err != nil {
		return nil, err
	}
	res.Trace.Total = time.Since(start)
	return res, nil
}

// FrontEnd runs the front half of the pipeline — parse → sema → build →
// validate — through the artifact cache and returns the cached plain
// value trace itself, unrefined and shared with every compilation of the
// source: treat it as read-only. It is the loading path of internal/bench
// and cmd/vtdump.
// (The Front type, by contrast, is the Pareto front Explore returns.)
func FrontEnd(ctx context.Context, in Input) (*vt.Program, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	art, _, err := frontStages(in)
	if err != nil {
		return nil, err
	}
	return art.plain()
}

// Parse runs only the parse and sema stages, with positioned diagnostics.
// It is uncached and returns a private syntax tree; format-path tooling
// (cmd/ispsfmt) uses it.
func Parse(ctx context.Context, in Input) (*isps.Program, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ast, err := isps.ParseOnly(in.Name, in.Source)
	if err != nil {
		return nil, Diagnose(StageParse, in, err)
	}
	if err := isps.Analyze(ast); err != nil {
		return nil, Diagnose(StageSema, in, err)
	}
	return ast, nil
}
