// Package exp implements the experiment harness: one function per table
// and figure of the reconstructed evaluation (see DESIGN.md §per-experiment
// index). Each experiment has a data-producing function, used by the tests
// and benchmarks, and a rendering function used by cmd/daabench.
//
// Every experiment compiles through the staged pipeline (internal/flow):
// the front end of each benchmark is parsed and built once in the flow
// artifact cache, whose one value trace every compilation reads, and the
// suite-wide experiments (E5, E6, E7, E9) fan their independent
// compilations out across a bounded worker pool. Rendered tables remain
// byte-deterministic: results are collected by benchmark index, never by
// completion order.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/flow"
	"repro/internal/prod"
	"repro/internal/report"
	"repro/internal/rtl"
)

// compileBench runs a benchmark through the full pipeline with the DAA (or
// whatever opt selects), using the shared artifact cache.
func compileBench(ctx context.Context, name string, opt flow.Options) (*flow.Result, error) {
	in, err := bench.Input(name)
	if err != nil {
		return nil, err
	}
	return flow.Compile(ctx, in, opt)
}

// E1Row is one knowledge-base category (phase) of Table 1.
type E1Row struct {
	Phase         string
	Rules         int
	MeanLHS       float64
	MeanPositives float64
}

// E1 computes the knowledge-base inventory.
func E1() []E1Row {
	var rows []E1Row
	total := E1Row{Phase: "total"}
	for _, ph := range core.KnowledgeBase() {
		r := E1Row{Phase: ph.Name, Rules: len(ph.Rules)}
		for _, rule := range ph.Rules {
			r.MeanLHS += float64(rule.Specificity())
			pos := 0
			for _, p := range rule.Patterns {
				if !p.Negated {
					pos++
				}
			}
			r.MeanPositives += float64(pos)
		}
		total.Rules += r.Rules
		total.MeanLHS += r.MeanLHS
		total.MeanPositives += r.MeanPositives
		r.MeanLHS /= float64(r.Rules)
		r.MeanPositives /= float64(r.Rules)
		rows = append(rows, r)
	}
	total.MeanLHS /= float64(total.Rules)
	total.MeanPositives /= float64(total.Rules)
	return append(rows, total)
}

// RenderE1 prints Table 1.
func RenderE1(w io.Writer) {
	t := report.New("E1 / Table 1 — knowledge-base inventory (rules per allocation phase)",
		"phase", "rules", "mean LHS tests", "mean patterns")
	for _, r := range E1() {
		t.Row(r.Phase, r.Rules, r.MeanLHS, r.MeanPositives)
	}
	t.Note("LHS tests include the class test of every pattern, as OPS5 counted conditions.")
	t.Render(w)
}

// E2Row is one allocator's result on a benchmark (Table 2 / Table 4).
type E2Row struct {
	Allocator string
	Counts    rtl.Counts
	Cost      cost.Breakdown
}

// E2 runs the DAA and both baselines on one benchmark, each through the
// full pipeline. All three read the one cached trace: the DAA's
// trace-refinement rules rewrite a copy of their own (part of its
// knowledge advantage), and the baselines see the unrefined description,
// as the paper's comparators did.
func E2(ctx context.Context, benchName string) ([]E2Row, error) {
	rows := []E2Row{{Allocator: "daa"}, {Allocator: "left-edge"}, {Allocator: "naive"}}
	for i, a := range []string{flow.AllocDAA, flow.AllocLeftEdge, flow.AllocNaive} {
		res, err := compileBench(ctx, benchName, flow.Options{Allocator: a})
		if err != nil {
			return nil, err
		}
		rows[i].Counts, rows[i].Cost = res.Design.Counts(), res.Cost
	}
	return rows, nil
}

// RenderE2 prints Table 2 for a benchmark.
func RenderE2(ctx context.Context, w io.Writer, benchName string) error {
	rows, err := E2(ctx, benchName)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("E2 / Table 2 — %s register-transfer design, DAA vs baselines", benchName),
		"allocator", "regs", "reg bits", "units", "unit fns", "muxes", "mux ways", "links", "states", "gate equiv")
	for _, r := range rows {
		t.Row(r.Allocator, r.Counts.Registers, r.Counts.RegBits, r.Counts.Units,
			r.Counts.UnitFns, r.Counts.Muxes, r.Counts.MuxInputs, r.Counts.Links,
			r.Counts.States, r.Cost.Datapath)
	}
	daa, naive := rows[0].Cost.Datapath, rows[2].Cost.Datapath
	if daa > 0 {
		t.Note("naive/daa gate-equivalent ratio: %.2fx", naive/daa)
	}
	t.Render(w)
	return nil
}

// E3Data is the synthesis-statistics table for one benchmark.
type E3Data struct {
	Bench   string
	TraceOp int
	Stats   core.Stats
}

// E3 runs the DAA and collects the per-phase statistics.
func E3(ctx context.Context, benchName string) (*E3Data, error) {
	res, err := compileBench(ctx, benchName, flow.Options{})
	if err != nil {
		return nil, err
	}
	return &E3Data{
		Bench:   benchName,
		TraceOp: res.Design.Trace.OpCount(),
		Stats:   res.Synth.Stats,
	}, nil
}

// RenderE3 prints Table 3, including the engine-metrics columns from the
// incremental matcher: pattern tests executed, incremental conflict-set
// updates vs from-scratch activations, and the conflict-set peak.
func RenderE3(ctx context.Context, w io.Writer, benchName string) error {
	d, err := E3(ctx, benchName)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("E3 / Table 3 — synthesis statistics on %s (%d VT operators)", benchName, d.TraceOp),
		"phase", "rules", "firings", "cycles", "WM peak", "match calls", "deltas", "rebuilds", "CS peak", "time")
	for _, ph := range d.Stats.Phases {
		t.Row(ph.Name, ph.Rules, ph.Firings, ph.Cycles, ph.WMPeak,
			ph.Engine.MatchCalls, ph.Engine.Deltas, ph.Engine.Rebuilds, ph.Engine.ConflictPeak,
			ph.Elapsed.Round(1000*1000).String())
	}
	t.Row("total", "", d.Stats.TotalFirings, "", "", d.Stats.TotalMatchCalls, "", "", "",
		d.Stats.Elapsed.Round(1000*1000).String())
	t.Note("firing rate: %.0f rules/sec (the 1983 VAX-11/780 OPS5 ran ~2/sec)", d.Stats.FiringsPerSecond())
	t.Note("match calls count pattern tests; deltas/rebuilds are incremental vs full conflict-set updates.")
	t.Render(w)
	return nil
}

// EngineMetrics runs the DAA on a benchmark and returns the merged
// engine-metrics snapshot across all phases.
func EngineMetrics(ctx context.Context, benchName string) (*E3Data, prod.Metrics, error) {
	d, err := E3(ctx, benchName)
	if err != nil {
		return nil, prod.Metrics{}, err
	}
	return d, d.Stats.EngineMetrics(), nil
}

// RenderEngineMetrics prints the engine observability section: where the
// incremental matcher spends its time, rule by rule.
func RenderEngineMetrics(ctx context.Context, w io.Writer, benchName string) error {
	d, m, err := EngineMetrics(ctx, benchName)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("E8 (engine) — per-rule match cost on %s, top %d by match time", benchName, engineTopRules),
		"rule", "phase", "firings", "deltas", "rebuilds", "match calls", "added", "invalidated", "match time")
	for _, r := range m.TopRulesByMatchTime(engineTopRules) {
		t.Row(r.Name, r.Category, r.Firings, r.Deltas, r.Rebuilds, r.MatchCalls,
			r.Added, r.Invalidated, r.MatchTime.Round(1000).String())
	}
	t.Note("conflict set: peak %d, mean %.1f over %d cycles; %d instantiations added, %d invalidated.",
		m.ConflictPeak, m.ConflictMean, m.Cycles, m.Added, m.Invalidated)
	t.Note("incremental updates: %d deltas vs %d full rebuilds (%d pattern tests total).",
		m.Deltas, m.Rebuilds, m.MatchCalls)
	t.Note("Rete network: %d alpha tests feeding %d memories for %d patterns; %d join + %d negation nodes.",
		m.AlphaTests, m.AlphaMems, m.AlphaPatterns, m.JoinNodes, m.NegNodes)
	t.Note("network activity: %d alpha evals, %d join tests; tokens +%d -%d (%d live at exit).",
		m.AlphaEvals, m.JoinTests, m.TokenAsserts, m.TokenRetracts, m.TokensLive)
	t.Render(w)
	for _, ph := range d.Stats.Phases {
		if len(ph.Engine.ConflictSeries) < 2 {
			continue
		}
		labels := make([]string, len(ph.Engine.ConflictSeries))
		vals := make([]float64, len(ph.Engine.ConflictSeries))
		for i, v := range ph.Engine.ConflictSeries {
			labels[i] = fmt.Sprintf("cycle %d", i*ph.Engine.SeriesStride+1)
			vals[i] = float64(v)
		}
		if len(labels) > 12 {
			step := (len(labels) + 11) / 12
			var ls []string
			var vs []float64
			for i := 0; i < len(labels); i += step {
				ls = append(ls, labels[i])
				vs = append(vs, vals[i])
			}
			labels, vals = ls, vs
		}
		report.Series(w, fmt.Sprintf("E8 (engine) — conflict-set size over the %s phase", ph.Name), labels, vals)
	}
	return nil
}

// engineTopRules bounds the per-rule table of the engine section.
const engineTopRules = 12

// E4Point is one phase snapshot of the design-evolution figure.
type E4Point struct {
	Phase  string
	Counts rtl.Counts
}

// E4 captures the design after every DAA phase.
func E4(ctx context.Context, benchName string) ([]E4Point, error) {
	res, err := compileBench(ctx, benchName, flow.Options{})
	if err != nil {
		return nil, err
	}
	var pts []E4Point
	for _, ph := range res.Synth.Stats.Phases {
		pts = append(pts, E4Point{Phase: ph.Name, Counts: ph.Counts})
	}
	return pts, nil
}

// RenderE4 prints Figure 1: component counts after each phase.
func RenderE4(ctx context.Context, w io.Writer, benchName string) error {
	pts, err := E4(ctx, benchName)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("E4 / Figure 1 — design evolution through the DAA phases (%s)", benchName),
		"after phase", "regs", "units", "muxes", "links", "states")
	for _, p := range pts {
		t.Row(p.Phase, p.Counts.Registers, p.Counts.Units, p.Counts.Muxes, p.Counts.Links, p.Counts.States)
	}
	t.Note("links and muxes appear at datapath allocation; cleanup shrinks registers and units.")
	t.Render(w)
	var labels []string
	var vals []float64
	for _, p := range pts {
		labels = append(labels, p.Phase)
		vals = append(vals, float64(p.Counts.Registers+p.Counts.Units+p.Counts.Muxes))
	}
	report.Series(w, "E4 / Figure 1 (series) — registers+units+muxes after each phase", labels, vals)
	return nil
}

// E5Point is one benchmark of the scaling figure.
type E5Point struct {
	Bench    string
	Ops      int
	Firings  int
	WMPeak   int
	ElapsedS float64
}

// E5 measures rules fired and time against description size across the
// whole benchmark suite. The nine syntheses are independent, so they run
// across the flow worker pool; results land by benchmark index and are
// then sorted by size (name-tiebroken), keeping the table deterministic.
func E5(ctx context.Context) ([]E5Point, error) {
	names := bench.Names()
	pts := make([]E5Point, len(names))
	err := flow.RunAll(ctx, len(names), func(ctx context.Context, i int) error {
		d, err := E3(ctx, names[i])
		if err != nil {
			return err
		}
		peak := 0
		for _, ph := range d.Stats.Phases {
			if ph.WMPeak > peak {
				peak = ph.WMPeak
			}
		}
		pts[i] = E5Point{
			Bench:    names[i],
			Ops:      d.TraceOp,
			Firings:  d.Stats.TotalFirings,
			WMPeak:   peak,
			ElapsedS: d.Stats.Elapsed.Seconds(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Ops != pts[j].Ops {
			return pts[i].Ops < pts[j].Ops
		}
		return pts[i].Bench < pts[j].Bench
	})
	return pts, nil
}

// RenderE5 prints Figure 2.
func RenderE5(ctx context.Context, w io.Writer) error {
	pts, err := E5(ctx)
	if err != nil {
		return err
	}
	t := report.New("E5 / Figure 2 — scaling: rules fired and time vs description size",
		"benchmark", "VT ops", "firings", "firings/op", "WM peak", "time (ms)")
	for _, p := range pts {
		t.Row(p.Bench, p.Ops, p.Firings, float64(p.Firings)/float64(p.Ops), p.WMPeak, p.ElapsedS*1000)
	}
	t.Note("firings/op stays flat: rule firings grow linearly in description size.")
	t.Render(w)
	var labels []string
	var vals []float64
	for _, p := range pts {
		labels = append(labels, fmt.Sprintf("%s (%d ops)", p.Bench, p.Ops))
		vals = append(vals, float64(p.Firings))
	}
	report.Series(w, "E5 / Figure 2 (series) — total rule firings by benchmark", labels, vals)
	return nil
}

// E6Row is one benchmark of the cross-benchmark quality table.
type E6Row struct {
	Bench string
	Rows  []E2Row
}

// E6 runs all three allocators on every benchmark, fanning the
// benchmarks out across the flow worker pool. Output order is fixed by
// bench.Names, not completion order.
func E6(ctx context.Context) ([]E6Row, error) {
	names := bench.Names()
	out := make([]E6Row, len(names))
	err := flow.RunAll(ctx, len(names), func(ctx context.Context, i int) error {
		rows, err := E2(ctx, names[i])
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		out[i] = E6Row{Bench: names[i], Rows: rows}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderE6 prints Table 4.
func RenderE6(ctx context.Context, w io.Writer) error {
	rows, err := E6(ctx)
	if err != nil {
		return err
	}
	t := report.New("E6 / Table 4 — design quality across the benchmark suite (gate equivalents)",
		"benchmark", "daa", "left-edge", "naive", "naive/daa", "le/daa")
	for _, r := range rows {
		daa := r.Rows[0].Cost.Datapath
		le := r.Rows[1].Cost.Datapath
		nv := r.Rows[2].Cost.Datapath
		t.Row(r.Bench, daa, le, nv, nv/daa, le/daa)
	}
	t.Note("shape target: daa <= left-edge <= naive on every benchmark.")
	t.Render(w)
	return nil
}

// ProvenanceDepth runs a journaled synthesis of one benchmark and returns
// the provenance-depth table: firings per final component, by kind and
// phase. It renders from the same provenance index as daa -explain and
// daad GET /v1/explain.
func ProvenanceDepth(ctx context.Context, benchName string) ([]core.DepthRow, error) {
	res, err := compileBench(ctx, benchName,
		flow.Options{Core: core.Options{Journal: true}})
	if err != nil {
		return nil, err
	}
	return res.Provenance().Depth(), nil
}

// RenderProvenanceDepth prints the provenance-depth table.
func RenderProvenanceDepth(ctx context.Context, w io.Writer, benchName string) error {
	rows, err := ProvenanceDepth(ctx, benchName)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("provenance depth — rule firings per final component (%s)", benchName),
		"kind", "components", "total firings", "mean", "top phase")
	for _, r := range rows {
		top, topN := "-", 0
		for _, ph := range core.KnowledgeBase() {
			if n := r.ByPhase[ph.Name]; n > topN {
				top, topN = ph.Name, n
			}
		}
		t.Row(r.Kind, r.Components, r.Total, fmt.Sprintf("%.1f", r.Mean),
			fmt.Sprintf("%s (%d)", top, topN))
	}
	t.Note("From the effect journal: every component of the final design indexed by the firings that built it.")
	t.Render(w)
	return nil
}

// All renders every experiment, Table 2/3 and Figure 1 on the paper's
// MCS6502 case study.
func All(ctx context.Context, w io.Writer) error {
	RenderE1(w)
	if err := RenderE2(ctx, w, "mcs6502"); err != nil {
		return err
	}
	if err := RenderE3(ctx, w, "mcs6502"); err != nil {
		return err
	}
	if err := RenderE4(ctx, w, "mcs6502"); err != nil {
		return err
	}
	if err := RenderE5(ctx, w); err != nil {
		return err
	}
	if err := RenderE6(ctx, w); err != nil {
		return err
	}
	if err := RenderE7(ctx, w); err != nil {
		return err
	}
	if err := RenderE9(ctx, w); err != nil {
		return err
	}
	if err := RenderE10(ctx, w, "mcs6502"); err != nil {
		return err
	}
	if err := RenderProvenanceDepth(ctx, w, "mcs6502"); err != nil {
		return err
	}
	return RenderEngineMetrics(ctx, w, "mcs6502")
}

// E7Row is one benchmark of the knowledge-ablation study: the full DAA
// against runs with the trace-refinement or global-improvement knowledge
// removed. This extension experiment quantifies what each knowledge
// category buys, in gate equivalents.
type E7Row struct {
	Bench     string
	Full      float64
	NoTrace   float64
	NoCleanup float64
	NoEither  float64
}

// E7 runs the ablation across the benchmark suite: 4 knowledge variants
// x 9 benchmarks = 36 independent syntheses, flattened onto the flow
// worker pool. Each synthesis compiles through the cached front end and
// lands in its (benchmark, variant) slot, so the table is deterministic
// regardless of scheduling.
func E7(ctx context.Context) ([]E7Row, error) {
	variants := []core.Options{
		{},
		{DisableTraceRules: true},
		{DisableCleanup: true},
		{DisableTraceRules: true, DisableCleanup: true},
	}
	names := bench.Names()
	out := make([]E7Row, len(names))
	costs := make([][4]float64, len(names))
	err := flow.RunAll(ctx, len(names)*len(variants), func(ctx context.Context, idx int) error {
		b, v := idx/len(variants), idx%len(variants)
		res, err := compileBench(ctx, names[b], flow.Options{Core: variants[v]})
		if err != nil {
			return fmt.Errorf("%s variant %d: %w", names[b], v, err)
		}
		costs[b][v] = res.Cost.Datapath
		return nil
	})
	if err != nil {
		return nil, err
	}
	for b, name := range names {
		out[b] = E7Row{
			Bench:     name,
			Full:      costs[b][0],
			NoTrace:   costs[b][1],
			NoCleanup: costs[b][2],
			NoEither:  costs[b][3],
		}
	}
	return out, nil
}

// RenderE7 prints the ablation table.
func RenderE7(ctx context.Context, w io.Writer) error {
	rows, err := E7(ctx)
	if err != nil {
		return err
	}
	t := report.New("E7 (extension) — knowledge ablation: gate equivalents without each rule category",
		"benchmark", "full daa", "-trace", "-cleanup", "-both", "both/full")
	for _, r := range rows {
		t.Row(r.Bench, r.Full, r.NoTrace, r.NoCleanup, r.NoEither, r.NoEither/r.Full)
	}
	t.Note("the full rule base never loses: removing knowledge never shrinks the design.")
	t.Render(w)
	return nil
}
