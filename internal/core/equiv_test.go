package core_test

// Firing-trace and engine-counter goldens: every embedded benchmark's
// firing trace (the Options.Trace text) and its engine counters (the
// daa -engine-stats counts, without times) are checked in under
// testdata/. Regenerate after an intentional rule-base or conflict-
// resolution change with:
//
//	go test ./internal/core -run 'TestFiringTraceEquivalence|TestJournaledTraceEquivalence' -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the firing-trace and engine-counter goldens")

// synthTrace synthesizes one benchmark and returns its firing trace and
// run statistics.
func synthTrace(t *testing.T, name string, opt core.Options) (string, core.Stats) {
	t.Helper()
	tr, err := bench.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opt.Trace = &buf
	res, err := core.Synthesize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), res.Stats
}

// engineCounters renders every engine count of a run, and no times: per
// phase the recognize-act and conflict-set figures, then the merged network
// shape and activity, then each rule's counters in phase and registration
// order.
func engineCounters(s core.Stats) string {
	var b strings.Builder
	for _, ph := range s.Phases {
		m := ph.Engine
		fmt.Fprintf(&b, "phase %s: firings=%d cycles=%d wm-peak=%d matches=%d deltas=%d rebuilds=%d added=%d invalidated=%d cs-peak=%d cs-mean=%.3f\n",
			ph.Name, ph.Firings, ph.Cycles, ph.WMPeak, m.MatchCalls, m.Deltas, m.Rebuilds, m.Added, m.Invalidated, m.ConflictPeak, m.ConflictMean)
	}
	agg := s.EngineMetrics()
	fmt.Fprintf(&b, "total: firings=%d cycles=%d pattern tests=%d\n", s.TotalFirings, s.TotalCycles, s.TotalMatchCalls)
	fmt.Fprintf(&b, "network: alpha tests=%d mems=%d (patterns=%d) join nodes=%d neg nodes=%d\n",
		agg.AlphaTests, agg.AlphaMems, agg.AlphaPatterns, agg.JoinNodes, agg.NegNodes)
	fmt.Fprintf(&b, "activity: alpha evals=%d join tests=%d tokens +%d -%d (live %d)\n",
		agg.AlphaEvals, agg.JoinTests, agg.TokenAsserts, agg.TokenRetracts, agg.TokensLive)
	for _, r := range agg.Rules {
		fmt.Fprintf(&b, "rule %s %s: firings=%d deltas=%d rebuilds=%d matches=%d added=%d invalidated=%d size=%d\n",
			r.Category, r.Name, r.Firings, r.Deltas, r.Rebuilds, r.MatchCalls, r.Added, r.Invalidated, r.Size)
	}
	return b.String()
}

// checkGolden compares got against testdata/<dir>/<name>.txt, or rewrites
// the file when write is set.
func checkGolden(t *testing.T, dir, name, got string, write bool) {
	t.Helper()
	golden := filepath.Join("testdata", dir, name+".txt")
	if write {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from %s (regenerate with -update if intended):\n%s", dir, golden, firstDiff(got, string(want)))
	}
}

// checkGoldens synthesizes every embedded benchmark under opt and compares
// its firing trace and engine counters with the goldens, or rewrites them
// when write is set.
func checkGoldens(t *testing.T, opt core.Options, write bool) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			trace, stats := synthTrace(t, name, opt)
			if trace == "" {
				t.Fatal("empty firing trace")
			}
			checkGolden(t, "trace", name, trace, write)
			checkGolden(t, "counters", name, engineCounters(stats), write)
		})
	}
}

// TestFiringTraceEquivalence pins every embedded benchmark's firing
// sequence — every rule name and matched element ID, in order — and its
// engine counters to the goldens. This is the acceptance test for the
// conflict-resolution semantics (refraction, recency, specificity,
// declaration order) and the match network's work surviving refactors
// unchanged; TestCrossCheckAllBenchmarks checks the same runs against the
// exhaustive oracle cycle by cycle.
func TestFiringTraceEquivalence(t *testing.T) {
	checkGoldens(t, core.Options{}, *update)
}

// TestJournaledTraceEquivalence repeats the golden comparison with journal
// recording enabled: the journal hooks observe every WM change and firing
// as the engine makes them, and must change neither the firing sequence nor
// the match work. Only the plain run writes the goldens under -update.
func TestJournaledTraceEquivalence(t *testing.T) {
	checkGoldens(t, core.Options{Journal: true}, false)
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

func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  got:    %s\n  golden: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, golden %d lines", len(gl), len(wl))
}
