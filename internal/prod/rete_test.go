package prod

import "testing"

// The alpha layer must share constant tests and memories across rules:
// three rules over the same class/test set compile to one memory, and a
// distinct test set adds exactly one test node.
func TestAlphaSharing(t *testing.T) {
	nop := func(*Tx, *Match) {}
	wm := NewWM()
	eng := NewEngine(wm)
	for _, name := range []string{"r1", "r2", "r3"} {
		eng.AddRule(&Rule{Name: name, Patterns: []Pattern{
			P("op").Eq("kind", "add").Present("width"),
		}, Action: nop})
	}
	eng.AddRule(&Rule{Name: "r4", Patterns: []Pattern{
		P("op").Eq("kind", "add").Present("width").Absent("unit"),
	}, Action: nop})

	m := eng.Metrics()
	if m.AlphaPatterns != 4 {
		t.Errorf("AlphaPatterns = %d, want 4", m.AlphaPatterns)
	}
	// r1-r3 share one memory; r4's extra Absent test splits a second.
	if m.AlphaMems != 2 {
		t.Errorf("AlphaMems = %d, want 2 (3 identical patterns share one)", m.AlphaMems)
	}
	// Distinct tests: Eq(kind,add), Present(width), Absent(unit).
	if m.AlphaTests != 3 {
		t.Errorf("AlphaTests = %d, want 3 interned tests", m.AlphaTests)
	}
	if m.JoinNodes != 4 || m.NegNodes != 0 {
		t.Errorf("nodes = %d join / %d neg, want 4/0", m.JoinNodes, m.NegNodes)
	}
}

// A shared alpha test must evaluate once per element change no matter how
// many memories consume it.
func TestAlphaEvalDedup(t *testing.T) {
	nop := func(*Tx, *Match) {}
	wm := NewWM()
	eng := NewEngine(wm)
	// Two distinct memories (different second test) sharing Eq(kind,add).
	eng.AddRule(&Rule{Name: "r1", Patterns: []Pattern{
		P("op").Eq("kind", "add").Present("a"),
	}, Action: nop})
	eng.AddRule(&Rule{Name: "r2", Patterns: []Pattern{
		P("op").Eq("kind", "add").Present("b"),
	}, Action: nop})
	eng.applyChanges() // seed empty WM
	base := eng.Metrics().AlphaEvals
	wm.Make("op", Attrs{"kind": "mul"})
	eng.applyChanges()
	evals := eng.Metrics().AlphaEvals - base
	// Both memories ask Eq(kind,add); the element fails it. One cached
	// evaluation must serve both.
	if evals != 1 {
		t.Errorf("alpha evals for one element against a shared failing test = %d, want 1", evals)
	}
}

// Conflict-set selection is the per-cycle hot path: scanning it must not
// allocate. (Trace rendering and divergence panics — matchIDs,
// describeMatch — are the only string-building paths left, and they are
// off the cycle loop.)
func TestSelectionAllocFree(t *testing.T) {
	eng := seededSelectionEngine()
	if n := testing.AllocsPerRun(200, func() { eng.selectRete(false) }); n != 0 {
		t.Errorf("selectRete allocates %.1f times per call, want 0", n)
	}
}

// BenchmarkSelection measures the selection scan over a standing conflict
// set; run with -benchmem to see the allocation count (the old
// implementation allocated a sorted []int recency key per candidate).
func BenchmarkSelection(b *testing.B) {
	eng := seededSelectionEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.selectRete(false)
	}
}

// seededSelectionEngine builds an engine whose conflict set holds dozens
// of multi-element instantiations without firing anything.
func seededSelectionEngine() *Engine {
	nop := func(*Tx, *Match) {}
	wm := NewWM()
	eng := NewEngine(wm)
	eng.AddRule(&Rule{Name: "single", Patterns: []Pattern{
		P("item").Bind("g", "g"),
	}, Action: nop})
	eng.AddRule(&Rule{Name: "pairs", Patterns: []Pattern{
		P("item").Bind("g", "g"),
		P("item").Bind("g", "g").Present("n"),
	}, Action: nop})
	for i := 0; i < 24; i++ {
		wm.Make("item", Attrs{"g": i % 4, "n": i})
	}
	eng.applyChanges()
	return eng
}

// The Rete matcher must do strictly less match work than the exhaustive
// matcher on an incremental workload: the exhaustive matcher re-enumerates
// every rule each cycle, the network reruns only the affected joins.
func TestReteWorkBelowExhaustive(t *testing.T) {
	workload := func(mode func(*Engine)) int {
		wm := NewWM()
		for i := 0; i < 60; i++ {
			wm.Make("item", Attrs{"g": i % 6, "n": i})
		}
		eng := NewEngine(wm)
		mode(eng)
		eng.AddRule(&Rule{Name: "chain", Patterns: []Pattern{
			P("item").Absent("done").Bind("g", "g"),
			P("item").Bind("g", "g").Present("n"),
		}, Action: func(e *Tx, m *Match) {
			e.WM().Modify(m.El(0), Attrs{"done": true})
		}})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.MatchCount()
	}
	rete := workload(func(e *Engine) {})
	exh := workload(func(e *Engine) { e.Exhaustive = true })
	if rete >= exh {
		t.Errorf("rete match work (%d) not below exhaustive (%d)", rete, exh)
	}
}

// Mode flips mid-run must resynchronize matcher state instead of reading
// stale conflict sets.
func TestModeFlipResync(t *testing.T) {
	wm := NewWM()
	eng := NewEngine(wm)
	eng.AddRule(&Rule{Name: "r", Patterns: []Pattern{P("a").Absent("done")},
		Action: func(e *Tx, m *Match) { e.WM().Modify(m.El(0), Attrs{"done": true}) }})
	wm.Make("a", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Drive exhaustively for a while, mutating WM so the idle rete state
	// goes stale, then flip back.
	eng.Exhaustive = true
	wm.Make("a", nil)
	wm.Make("a", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Exhaustive = false
	wm.Make("a", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Firings(); got != 4 {
		t.Errorf("fired %d times across mode flips, want 4", got)
	}
	// The final state must agree with ground truth (empty conflict set
	// aside from refraction-spent instantiations).
	eng.applyChanges()
	diffStrings(t, "post-flip", eng.instantiations(), groundTruth(wm, eng.rules))
}
