package serve

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/flow"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// TestBaselineDesignsDeterministic: the baseline allocators build the same
// design on every run, so their Verilog, control table and report are
// byte-identical, as the daemon's cache and `daa -remote` promise.
func TestBaselineDesignsDeterministic(t *testing.T) {
	allocators := []struct {
		name string
		run  func(*vt.Program, alloc.Options) (*rtl.Design, error)
	}{{"leftedge", alloc.LeftEdge}, {"naive", alloc.Naive}}
	for _, name := range bench.Names() {
		for _, a := range allocators {
			t.Run(name+"/"+a.name, func(t *testing.T) {
				var first string
				for run := 0; run < 5; run++ {
					tr, err := bench.Load(name)
					if err != nil {
						t.Fatal(err)
					}
					d, err := a.run(tr, alloc.Options{})
					if err != nil {
						t.Fatal(err)
					}
					var b strings.Builder
					if err := d.WriteVerilog(&b, d.Name); err != nil {
						t.Fatal(err)
					}
					ctl, err := d.Validate()
					if err != nil {
						t.Fatal(err)
					}
					if err := ctl.Write(&b); err != nil {
						t.Fatal(err)
					}
					b.WriteString(RenderReport(&flow.Result{Design: d, Control: ctl, Cost: cost.Default().Design(d)}))
					if run == 0 {
						first = b.String()
					} else if b.String() != first {
						t.Fatalf("run %d differs from run 0", run)
					}
				}
			})
		}
	}
}
