package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// traceWith synthesizes one benchmark and returns its firing trace.
func traceWith(t *testing.T, name string, opt core.Options) string {
	t.Helper()
	tr, err := bench.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opt.Trace = &buf
	if _, err := core.Synthesize(tr, opt); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFiringTraceEquivalence asserts the compiled Rete network (the
// default matcher) reproduces the exhaustive matcher's firing sequence bit
// for bit — every rule name and every matched element ID, in order — on
// every embedded benchmark. This is the acceptance test for the
// conflict-resolution semantics (refraction, recency, specificity,
// declaration order) surviving the match-network refactors unchanged.
func TestFiringTraceEquivalence(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			exh := traceWith(t, name, core.Options{ExhaustiveMatch: true})
			if exh == "" {
				t.Fatal("empty firing trace")
			}
			if got := traceWith(t, name, core.Options{}); got != exh {
				t.Errorf("rete firing trace diverges from exhaustive:\n%s", firstDiff(got, exh))
			}
		})
	}
}

// TestJournaledTraceEquivalence re-runs the trace comparison with journal
// recording enabled: the journal hooks observe every WM change and firing
// in matcher order, so this pins the binding vectors and change streams,
// not just the selected instantiations.
func TestJournaledTraceEquivalence(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			exh := traceWith(t, name, core.Options{ExhaustiveMatch: true, Journal: true})
			got := traceWith(t, name, core.Options{Journal: true})
			if got == "" {
				t.Fatal("empty firing trace")
			}
			if got != exh {
				t.Errorf("journaled rete trace diverges from exhaustive:\n%s", firstDiff(got, exh))
			}
		})
	}
}

// TestCrossCheckAllBenchmarks synthesizes every embedded benchmark with
// the two-way lockstep cross-check enabled: each cycle the exhaustive
// matcher independently re-derives the selected instantiation and the
// engine panics on any disagreement with the Rete network's conflict set.
func TestCrossCheckAllBenchmarks(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			tr, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(tr, core.Options{CrossCheckMatch: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.TotalFirings == 0 {
				t.Error("cross-checked synthesis fired no rules")
			}
			em := res.Stats.EngineMetrics()
			if em.AlphaMems == 0 || em.TokenAsserts == 0 {
				t.Errorf("Rete network reported no activity: mems=%d tokenAsserts=%d",
					em.AlphaMems, em.TokenAsserts)
			}
		})
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  got:        %s\n  exhaustive: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("trace lengths differ: %d vs %d lines", len(al), len(bl))
}
