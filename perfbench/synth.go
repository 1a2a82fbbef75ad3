package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/flow"
	"repro/internal/rtl"
)

// goldenVerilog reads a benchmark's checked-in Verilog golden.
func goldenVerilog(name string) (string, error) {
	b, err := os.ReadFile("internal/rtl/testdata/golden/" + name + ".v")
	return string(b), err
}

// newSynth is the synth-6502 workload: the paper's own experiment, one
// in-process flow.Compile of mcs6502 per op with the front end cached.
// The seed only names the input.
func newSynth(seed int64) (workload, error) {
	src, err := bench.Source("mcs6502")
	if err != nil {
		return workload{}, err
	}
	golden, err := goldenVerilog("mcs6502")
	if err != nil {
		return workload{}, err
	}
	in := flow.Input{Name: fmt.Sprintf("mcs6502-%d.isps", seed), Source: src}
	return workload{callers: 1, setup: func(ctx context.Context, _ *atomic.Bool) (instance, error) {
		// Set-up fills the front-end cache with a cold compile.
		flow.ResetCache()
		res, err := flow.Compile(ctx, in, flow.Options{})
		if err != nil {
			return nil, err
		}
		if err := checkVerilog(res.Design, golden); err != nil {
			return nil, err
		}
		return &synthBench{in: in, golden: golden, counts: res.Design.Counts(), cost: res.Cost}, nil
	}}, nil
}

type synthBench struct {
	in     flow.Input
	golden string
	counts rtl.Counts
	cost   cost.Breakdown
	layers tally
}

func (b *synthBench) begin(context.Context) error { return nil }

func (b *synthBench) op(ctx context.Context, _ int, traced bool) (time.Duration, error) {
	t0 := time.Now()
	res, err := flow.Compile(ctx, b.in, flow.Options{})
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if c := res.Design.Counts(); c != b.counts {
		return lat, fmt.Errorf("design counts %v, want %v", c, b.counts)
	}
	if res.Cost != b.cost {
		return lat, fmt.Errorf("cost %v, want %v", res.Cost, b.cost)
	}
	if traced {
		b.layers.add(compileLayers(res))
	}
	return lat, nil
}

// finish checks the Verilog of one more compile against the golden,
// outside the timed loop.
func (b *synthBench) finish(ctx context.Context, _ int) (map[string]float64, error) {
	res, err := flow.Compile(ctx, b.in, flow.Options{})
	if err != nil {
		return nil, err
	}
	return b.layers.means(), checkVerilog(res.Design, b.golden)
}

func (b *synthBench) close() {}

func checkVerilog(d *rtl.Design, golden string) error {
	var sb strings.Builder
	if err := d.WriteVerilog(&sb, d.Name); err != nil {
		return err
	}
	if sb.String() != golden {
		return fmt.Errorf("Verilog of %s differs from its golden", d.Name)
	}
	return nil
}

// compileLayers splits one in-process compilation across the layers, from
// the result's stage trace and the DAA's per-phase statistics.
func compileLayers(res *flow.Result) map[string]float64 {
	vals := map[string]float64{}
	stages := 0.0
	for _, s := range res.Trace.Stages {
		addStage(vals, s.Stage, ms(s.Elapsed))
		stages += ms(s.Elapsed)
	}
	vals["flow.other_ms"] = ms(res.Trace.Total) - stages
	st := res.Synth.Stats
	for _, ph := range st.Phases {
		vals["core."+ph.Name+"_ms"] = ms(ph.Elapsed)
		vals["prod.match_ms"] += ms(ph.Engine.MatchTime)
	}
	vals["core.outside_match_ms"] = vals["core.allocate_ms"] - vals["prod.match_ms"]
	em := st.EngineMetrics()
	vals["prod.firings"] = float64(st.TotalFirings)
	vals["prod.cycles"] = float64(st.TotalCycles)
	vals["prod.pattern_tests"] = float64(st.TotalMatchCalls)
	vals["prod.join_tests"] = float64(em.JoinTests)
	vals["prod.token_asserts"] = float64(em.TokenAsserts)
	vals["prod.join_nodes"] = float64(em.JoinNodes)
	return vals
}
