package repro

// One benchmark per table and figure of the reconstructed evaluation
// (DESIGN.md, per-experiment index). Each benchmark regenerates its
// experiment's data; run with
//
//	go test -bench=. -benchmem
//
// cmd/daabench prints the same results as formatted tables.

import (
	"context"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exp"
	"repro/internal/flow"
	"repro/internal/isps"
	"repro/internal/prod"
	"repro/internal/sched"
	"repro/internal/vt"
)

// BenchmarkE1KnowledgeBase — Table 1: summarizing the rule base.
func BenchmarkE1KnowledgeBase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.E1()
		if rows[len(rows)-1].Rules < 30 {
			b.Fatal("knowledge base shrank")
		}
	}
}

func loadTrace(b *testing.B, name string) *vt.Program {
	b.Helper()
	tr, err := bench.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// The DAA benchmarks below synthesize one loaded trace on every run:
// synthesis never writes its input, and phase 0 refines a copy of its own,
// so every run does the same work.

// BenchmarkE2MCS6502DAA — Table 2, row 1: the knowledge-based synthesis of
// the paper's subject.
func BenchmarkE2MCS6502DAA(b *testing.B) {
	tr := loadTrace(b, "mcs6502")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(tr, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Design.Counts().Units == 0 {
			b.Fatal("no units")
		}
	}
}

// BenchmarkE2MCS6502LeftEdge — Table 2, row 2: the algorithmic baseline.
func BenchmarkE2MCS6502LeftEdge(b *testing.B) {
	tr := loadTrace(b, "mcs6502")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.LeftEdge(tr, alloc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2MCS6502Naive — Table 2, row 3: the maximal design.
func BenchmarkE2MCS6502Naive(b *testing.B) {
	tr := loadTrace(b, "mcs6502")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.Naive(tr, alloc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3SynthesisStats — Table 3: a full DAA run with statistics
// collection on the MCS6502, reporting the rule-firing rate. Every run
// must make the same firings.
func BenchmarkE3SynthesisStats(b *testing.B) {
	tr := loadTrace(b, "mcs6502")
	b.ResetTimer()
	firings := 0
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(tr, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 && res.Stats.TotalFirings != firings {
			b.Fatalf("run %d made %d firings, run %d made %d", i, res.Stats.TotalFirings, i-1, firings)
		}
		firings = res.Stats.TotalFirings
	}
	b.ReportMetric(float64(firings), "firings/run")
}

// BenchmarkE4PhaseEvolution — Figure 1: the with/without-cleanup ablation.
func BenchmarkE4PhaseEvolution(b *testing.B) {
	tr := loadTrace(b, "mcs6502")
	model := cost.Default()
	b.ResetTimer()
	var with, without float64
	for i := 0; i < b.N; i++ {
		full, err := core.Synthesize(tr, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ablated, err := core.Synthesize(tr, core.Options{DisableCleanup: true})
		if err != nil {
			b.Fatal(err)
		}
		with = model.Design(full.Design).Datapath
		without = model.Design(ablated.Design).Datapath
	}
	b.ReportMetric(without/with, "ablation-ratio")
}

// BenchmarkE5Scaling — Figure 2: synthesis across every benchmark size.
func BenchmarkE5Scaling(b *testing.B) {
	for _, name := range bench.Names() {
		tr := loadTrace(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Synthesize(tr, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					// Per operator of the refined trace the design binds.
					b.ReportMetric(float64(res.Stats.TotalFirings)/float64(res.Design.Trace.OpCount()), "firings/op")
				}
			}
		})
	}
}

// BenchmarkE6CrossBenchmark — Table 4: all three allocators on every
// benchmark, verifying the quality ordering as it runs.
func BenchmarkE6CrossBenchmark(b *testing.B) {
	model := cost.Default()
	for _, name := range bench.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			tr := loadTrace(b, name)
			for i := 0; i < b.N; i++ {
				daa, err := core.Synthesize(tr, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				le, err := alloc.LeftEdge(tr, alloc.Options{})
				if err != nil {
					b.Fatal(err)
				}
				nv, err := alloc.Naive(tr, alloc.Options{})
				if err != nil {
					b.Fatal(err)
				}
				d := model.Design(daa.Design).Datapath
				l := model.Design(le).Datapath
				n := model.Design(nv).Datapath
				if d > l+1e-9 || l > n+1e-9 {
					b.Fatalf("%s: ordering violated: daa=%.1f le=%.1f naive=%.1f", name, d, l, n)
				}
				if i == 0 {
					b.ReportMetric(n/d, "naive/daa")
				}
			}
		})
	}
}

// --- substrate micro-benchmarks -----------------------------------------

// BenchmarkParserMCS6502 prices the ISPS front end on the largest input.
// This is deliberately a micro-benchmark of the parser alone: it bypasses
// the flow pipeline and its artifact cache, which everything else goes
// through.
func BenchmarkParserMCS6502(b *testing.B) {
	src, err := bench.Source("mcs6502")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := isps.Parse("mcs6502.isps", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVTBuildMCS6502 prices Value Trace construction. The AST comes
// from the pipeline's parse path; the loop prices vt.Build+Validate alone.
func BenchmarkVTBuildMCS6502(b *testing.B) {
	in, err := bench.Input("mcs6502")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := flow.Parse(context.Background(), in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := vt.Build(prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowCompileGCD prices the full staged pipeline, front to back:
// cached (the steady state of the experiment harness — parse+sema+build
// served from the artifact cache) vs cold (the cache emptied
// before each compile, so every stage runs from scratch).
func BenchmarkFlowCompileGCD(b *testing.B) {
	in, err := bench.Input("gcd")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := flow.Compile(ctx, in, flow.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			flow.ResetCache()
			if _, err := flow.Compile(ctx, in, flow.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkListScheduler prices resource-constrained scheduling over the
// whole MCS6502 trace.
func BenchmarkListScheduler(b *testing.B) {
	tr := loadTrace(b, "mcs6502")
	lim := sched.Limits{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sched.Program(tr, lim)
		if err != nil {
			b.Fatal(err)
		}
		if sched.TotalSteps(m) == 0 {
			b.Fatal("no steps")
		}
	}
}

// BenchmarkProductionEngine prices the recognize-act loop on a synthetic
// token-consumption workload of 500 elements.
func BenchmarkProductionEngine(b *testing.B) {
	tokens := &prod.Schema{Classes: map[string][]string{"tok": {"i", "seen"}}}
	for i := 0; i < b.N; i++ {
		wm := prod.NewWM(tokens)
		for j := 0; j < 500; j++ {
			wm.Make("tok", prod.Attrs{"i": j})
		}
		eng := prod.NewEngine(wm)
		eng.AddRule(&prod.Rule{
			Name:     "consume",
			Patterns: []prod.Pattern{prod.P("tok").Absent("seen")},
			Action: func(e *prod.Tx, m *prod.Match) {
				e.Modify(m.El(0), prod.Attrs{"seen": true})
			},
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Cosim — the verification extension: every benchmark through
// the pipeline's emit and cosim stages, asserting equivalence as it runs.
func BenchmarkE9Cosim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.E9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		samples := 0
		for _, r := range rows {
			if !r.Report.Equivalent {
				b.Fatalf("%s: %s", r.Bench, r.Report.Summary())
			}
			samples += r.Report.Samples
		}
		if i == 0 {
			b.ReportMetric(float64(samples), "samples/suite")
		}
	}
}

// BenchmarkE10Explore — the design-space-exploration extension: the
// 12-point knob grid swept on the worker pool and reduced to its Pareto
// front.
func BenchmarkE10Explore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		front, err := exp.E10(context.Background(), "mcs6502")
		if err != nil {
			b.Fatal(err)
		}
		// Some grid points fail by design (ASAP under the baseline
		// allocators violates the single-port memory constraint); the
		// front must still evaluate the DAA points and have a frontier.
		if front.Evaluated < 4 || front.Frontier < 1 {
			b.Fatalf("front shape: %d evaluated, %d frontier of %d points",
				front.Evaluated, front.Frontier, len(front.Points))
		}
		if i == 0 {
			b.ReportMetric(float64(front.Frontier), "frontier-points")
		}
	}
}

// BenchmarkE7Ablation — the knowledge-ablation extension: full DAA vs the
// rule base with trace refinement and global improvement removed.
func BenchmarkE7Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.E7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			worst := 1.0
			for _, r := range rows {
				if ratio := r.NoEither / r.Full; ratio > worst {
					worst = ratio
				}
			}
			b.ReportMetric(worst, "max-ablation-ratio")
		}
	}
}
