package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/rtl"
)

// The journal acceptance tests: every embedded benchmark's synthesis
// replays byte-identically from its effect journal, and every final
// component of the paper's subject (the MCS6502) resolves to at least one
// provenance firing.

func renderDesign(t testing.TB, d *rtl.Design) string {
	t.Helper()
	var b strings.Builder
	if err := d.WriteVerilog(&b, "top"); err != nil {
		t.Fatalf("render verilog: %v", err)
	}
	ctl, err := d.Validate()
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := ctl.Write(&b); err != nil {
		t.Fatalf("render control table: %v", err)
	}
	return b.String()
}

func TestJournalReplayAllBenchmarks(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			tr, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(tr, core.Options{Journal: true})
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			fresh, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := core.Replay(fresh, res.Journal, core.Options{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			want := renderDesign(t, res.Design)
			got := renderDesign(t, replayed)
			if got != want {
				t.Errorf("replayed %s differs from recorded design (%d vs %d bytes)",
					name, len(got), len(want))
			}
		})
	}
}

func TestProvenanceCoversMCS6502(t *testing.T) {
	tr, err := bench.Load("mcs6502")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(tr, core.Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	if un := res.Provenance.Unattributed(); len(un) > 0 {
		t.Fatalf("%d unattributed mcs6502 components, e.g. %v", len(un), un[:min(5, len(un))])
	}
}

func TestFlowCarriesJournal(t *testing.T) {
	in, err := bench.Input("gcd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Compile(context.Background(), in, flow.Options{Core: core.Options{Journal: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Journal() == nil || res.Provenance() == nil {
		t.Fatal("flow.Result did not carry journal/provenance")
	}
	plain, err := flow.Compile(context.Background(), in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Journal() != nil || plain.Provenance() != nil {
		t.Fatal("journal populated without the option")
	}
}

// FuzzJournalReplay compiles arbitrary ISPS, journals the synthesis, and
// asserts the replayed design renders byte-identically. Seeded with the
// nine embedded benchmarks.
func FuzzJournalReplay(f *testing.F) {
	for _, name := range bench.Names() {
		src, err := bench.Source(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		in := flow.Input{Name: "fuzz.isps", Source: src}
		res, err := flow.Compile(context.Background(), in, flow.Options{
			Core: core.Options{Journal: true},
		})
		if err != nil {
			t.Skip() // invalid input: the front end rejected it
		}
		fresh, err := flow.FrontEnd(context.Background(), in)
		if err != nil {
			t.Fatalf("front end accepted then rejected the same source: %v", err)
		}
		replayed, err := core.Replay(fresh, res.Journal(), core.Options{})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		want := renderDesign(t, res.Design)
		got := renderDesign(t, replayed)
		if got != want {
			t.Errorf("replayed design differs from recorded design")
		}
	})
}
