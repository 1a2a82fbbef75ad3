// The paper's case study: synthesize the MOS Technology MCS6502 from its
// ISPS description and compare the knowledge-based design against the
// baselines, as the DAC 1983 evaluation did.
//
// Each allocator gets its own flow.Compile run. The pipeline's artifact
// cache builds the front end once and every run reads its one trace: the
// baselines see the unrefined description, and the DAA's trace rules
// rewrite a copy of their own.
//
//	go run ./examples/mcs6502
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/report"
)

func main() {
	in, err := bench.Input("mcs6502")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	compile := func(allocator string) *flow.Result {
		res, err := flow.Compile(ctx, in, flow.Options{Allocator: allocator})
		if err != nil {
			log.Fatalf("%s: %v", allocator, err)
		}
		return res
	}
	daa := compile(flow.AllocDAA)
	le := compile(flow.AllocLeftEdge)
	naive := compile(flow.AllocNaive)

	// The baselines bind the trace of the description as written; the
	// DAA's design binds its copy refined by the trace rules.
	st := le.Design.Trace.Stats()
	fmt.Printf("MCS6502 value trace: %d operators in %d bodies over %d carriers\n\n",
		st.Ops, st.Bodies, st.Carriers)

	t := report.New("MCS6502: knowledge-based design vs baselines",
		"allocator", "regs", "units", "unit fns", "muxes", "links", "states", "gate equiv")
	dc, lc, nc := daa.Design.Counts(), le.Design.Counts(), naive.Design.Counts()
	t.Row("daa", dc.Registers, dc.Units, dc.UnitFns, dc.Muxes, dc.Links, dc.States, daa.Cost.Datapath)
	t.Row("left-edge", lc.Registers, lc.Units, lc.UnitFns, lc.Muxes, lc.Links, lc.States, le.Cost.Datapath)
	t.Row("naive", nc.Registers, nc.Units, nc.UnitFns, nc.Muxes, nc.Links, nc.States, naive.Cost.Datapath)
	t.Note("naive/daa: %.2fx fewer gate equivalents with the knowledge rules",
		naive.Cost.Datapath/daa.Cost.Datapath)
	t.Render(os.Stdout)

	fmt.Println("DAA functional units (the paper reported a small ALU set):")
	for _, u := range daa.Design.Units {
		fmt.Printf("  %s\n", u)
	}
	fmt.Println()
	fmt.Println("synthesis statistics:")
	for _, ph := range daa.Synth.Stats.Phases {
		fmt.Printf("  %-12s %5d firings  %v\n", ph.Name, ph.Firings, ph.Elapsed.Round(1000*1000))
	}
	fmt.Printf("  total %d firings, %.0f/sec (the 1983 VAX OPS5 managed ~2/sec)\n",
		daa.Synth.Stats.TotalFirings, daa.Synth.Stats.FiringsPerSecond())
}
