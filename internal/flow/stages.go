package flow

// The composable back end of the pipeline. Compile's front half
// (parse → sema → build) is memoized as a unit in the artifact cache;
// everything after it is a backStage: a named unit of work with its own
// timing record, diagnostics, and a context check before it runs. The
// stage list is a pure function of Options, so a cached and an uncached
// compilation of the same option set always produce the same
// Trace.Stages names in the same order — the property the stage-list
// tests pin down and both LRU caches rely on.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
)

// backStage is one named unit of the back end. run mutates res, returning
// the stage's trace note; errors come back already classified (Diagnose
// for input problems, plain errors for internal ones).
type backStage struct {
	name string
	run  func(ctx context.Context, in Input, opt Options, res *Result) (note string, err error)
}

// backStages assembles the back end for one option set: the mandatory
// allocate → validate → cost spine, then the optional emit and cosim
// stages. The allocate stage reads art, the source's front-end artifact.
// Every option consulted here is folded into Options.Key, which is what
// keeps the serve design cache sound as stages come and go.
func backStages(opt Options, art *frontArtifact) []backStage {
	allocate := func(ctx context.Context, in Input, opt Options, res *Result) (string, error) {
		return runAllocate(ctx, in, opt, art, res)
	}
	stages := []backStage{
		{StageAllocate, allocate},
		{StageValidate, runValidate},
		{StageCost, runCost},
	}
	if opt.EmitVerilog {
		stages = append(stages, backStage{StageEmit, runEmit})
	}
	if opt.Cosim {
		stages = append(stages, backStage{StageCosim, runCosim})
	}
	return stages
}

// runBack executes the assembled back end over res, timing each stage and
// checking the context between stages.
func runBack(ctx context.Context, in Input, opt Options, art *frontArtifact, res *Result) error {
	for _, st := range backStages(opt, art) {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		note, err := st.run(ctx, in, opt, res)
		if err != nil {
			return err
		}
		res.Trace.add(st.name, time.Since(t0), false, note)
	}
	return nil
}

// runAllocate synthesizes the register-transfer structure from the
// source's value trace: the DAA's production system (synthesize), or one
// of the baseline allocators, which bind the plain trace.
func runAllocate(ctx context.Context, in Input, opt Options, art *frontArtifact, res *Result) (string, error) {
	which := opt.Allocator
	if which == "" {
		which = AllocDAA
	}
	switch which {
	case AllocDAA:
		synth, err := synthesize(ctx, art, opt.Core)
		if err != nil {
			return "", Diagnose(StageAllocate, in, err)
		}
		res.Synth, res.Design = synth, synth.Design
	case AllocLeftEdge, AllocNaive:
		allocate := alloc.LeftEdge
		if which == AllocNaive {
			allocate = alloc.Naive
		}
		trace, err := art.plain()
		if err == nil {
			res.Design, err = allocate(trace, alloc.Options{Limits: opt.Core.Limits, Scheduler: opt.Scheduler})
		}
		if err != nil {
			return "", Diagnose(StageAllocate, in, err)
		}
	default:
		return "", fmt.Errorf("flow: unknown allocator %q (want %s, %s, or %s)",
			which, AllocDAA, AllocLeftEdge, AllocNaive)
	}
	c := res.Design.Counts()
	return fmt.Sprintf("%s: %d regs, %d units, %d muxes, %d links, %d states",
		which, c.Registers, c.Units, c.Muxes, c.Links, c.States), nil
}

// synthesize runs the DAA on the source. A compile that may share the
// artifact's one refinement binds it. Any other compile runs
// core.SynthesizeContext on the plain trace: with phase 0 off its design
// binds that trace, and a compile that observes phase 0 (a firing trace,
// the matcher cross-check or a journal, none of which the shared
// refinement records) refines a private copy of it.
func synthesize(ctx context.Context, art *frontArtifact, opt core.Options) (*core.Result, error) {
	if !opt.SharesRefinement() {
		trace, err := art.plain()
		if err != nil {
			return nil, err
		}
		return core.SynthesizeContext(ctx, trace, opt)
	}
	ref, err := art.refinement(ctx)
	if err != nil {
		return nil, err
	}
	return core.SynthesizeRefined(ctx, ref, opt)
}

// runValidate checks the design — structure, bindings and interconnect —
// and stores the control table the check derives on Result.Control. It is
// the compilation's one validation: neither allocator validates its own
// design.
func runValidate(ctx context.Context, in Input, opt Options, res *Result) (string, error) {
	ctl, err := res.Design.Validate()
	if err != nil {
		return "", Diagnose(StageValidate, in, err)
	}
	res.Control = ctl
	return "", nil
}

// runCost prices the design under the gate-equivalent model.
func runCost(ctx context.Context, in Input, opt Options, res *Result) (string, error) {
	res.Cost = opt.model().Design(res.Design)
	return fmt.Sprintf("%.0f gate equivalents", res.Cost.Datapath), nil
}

// runEmit renders the datapath as structural Verilog onto Result.Verilog.
func runEmit(ctx context.Context, in Input, opt Options, res *Result) (string, error) {
	var sb strings.Builder
	if err := res.Design.WriteVerilog(&sb, res.Design.Name); err != nil {
		return "", fmt.Errorf("flow: emit: %w", err)
	}
	res.Verilog = sb.String()
	return fmt.Sprintf("%d bytes of Verilog", len(res.Verilog)), nil
}

// runCosim co-simulates the design against the behavioral description and
// records the verdict on Result.Cosim. A mismatch is a result, not an
// error — callers (daa -verify, the daemon) decide how hard to fail.
func runCosim(ctx context.Context, in Input, opt Options, res *Result) (string, error) {
	rep, err := RunCosim(res.AST, res.Design, opt.cosimParams())
	if err != nil {
		return "", fmt.Errorf("flow: %w", err)
	}
	res.Cosim = rep
	return rep.Summary(), nil
}
