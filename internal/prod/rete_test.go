package prod

import (
	"fmt"
	"testing"
)

// The alpha layer must share constant tests and memories across rules:
// three rules over the same class/test set compile to one memory, and a
// distinct test set adds exactly one test node.
func TestAlphaSharing(t *testing.T) {
	nop := func(*Tx, *Match) {}
	wm := NewWM(testSchema)
	eng := NewEngine(wm)
	for _, name := range []string{"r1", "r2", "r3"} {
		eng.AddRule(&Rule{Name: name, Patterns: []Pattern{
			P("op").Eq("kind", "add").Bind("width", "w"),
		}, Action: nop})
	}
	eng.AddRule(&Rule{Name: "r4", Patterns: []Pattern{
		P("op").Eq("kind", "add").Bind("width", "w").Absent("unit"),
	}, Action: nop})

	m := eng.Metrics()
	if m.AlphaPatterns != 4 {
		t.Errorf("AlphaPatterns = %d, want 4", m.AlphaPatterns)
	}
	// r1-r3 share one memory; r4's extra Absent test splits a second.
	if m.AlphaMems != 2 {
		t.Errorf("AlphaMems = %d, want 2 (3 identical patterns share one)", m.AlphaMems)
	}
	// Distinct tests: Eq(kind,add), the presence Bind(width) requires,
	// Absent(unit).
	if m.AlphaTests != 3 {
		t.Errorf("AlphaTests = %d, want 3 interned tests", m.AlphaTests)
	}
	if m.JoinNodes != 4 || m.NegNodes != 0 {
		t.Errorf("nodes = %d join / %d neg, want 4/0", m.JoinNodes, m.NegNodes)
	}
}

// Rules whose first patterns compile to the same alpha memory and the same
// projections share one first node, whatever they name the variables.
// Fifteen rules shaped like the control phase's placement rules — a body's
// cursor joined to the next operator of one class — compile to one body
// node feeding fifteen operator nodes, whose hashed probes share one index
// of the body node's tokens. A single-pattern rule, a rule projecting
// other attributes, and a rule with a later pattern on the first memory
// each keep their own first node.
func TestFirstNodeSharing(t *testing.T) {
	nop := func(*Tx, *Match) {}
	wm := NewWM(testSchema)
	eng := NewEngine(wm)
	joinNodes := func(label string, want int) {
		t.Helper()
		if got := eng.Metrics().JoinNodes; got != want {
			t.Errorf("%s: JoinNodes = %d, want %d", label, got, want)
		}
	}
	for i := 0; i < 15; i++ {
		eng.AddRule(&Rule{Name: fmt.Sprintf("place-%d", i), Patterns: []Pattern{
			P("body").Bind("body", "b").Bind("cursor", "c"),
			P("op").Bind("body", "b").Bind("seq", "c").Eq("class", i),
		}, Action: nop})
	}
	joinNodes("15 placement rules", 16)
	shared := eng.rete.rules[0].nodes[0]
	for _, rr := range eng.rete.rules {
		if rr.nodes[0] != shared || rr.nodes[1].rr != rr {
			t.Fatalf("%s: first node not the shared one, or second node not its own", rr.r.Name)
		}
	}
	if len(shared.children) != 15 {
		t.Fatalf("shared node feeds %d children, want 15", len(shared.children))
	}

	eng.AddRule(&Rule{Name: "renamed", Patterns: []Pattern{
		P("body").Bind("body", "x").Bind("cursor", "y"),
		P("op").Bind("body", "x").Bind("seq", "y").Eq("class", "renamed"),
	}, Action: nop})
	joinNodes("variables renamed", 17)
	eng.AddRule(&Rule{Name: "single", Patterns: []Pattern{
		P("body").Bind("body", "b").Bind("cursor", "c"),
	}, Action: nop})
	joinNodes("single-pattern rule", 18)
	eng.AddRule(&Rule{Name: "reordered", Patterns: []Pattern{
		P("body").Bind("cursor", "c").Bind("body", "b"),
		P("op").Bind("body", "b").Bind("seq", "c"),
	}, Action: nop})
	joinNodes("other projections", 20)
	eng.AddRule(&Rule{Name: "same-mem", Patterns: []Pattern{
		P("body").Bind("body", "b").Bind("cursor", "c"),
		P("body").Bind("body", "b").Bind("cursor", "c"),
	}, Action: nop})
	joinNodes("later pattern on the first memory", 22)

	body := wm.Make("body", Attrs{"body": "main", "cursor": 0})
	eng.applyChanges()
	for i := 0; i < 15; i++ {
		wm.Make("op", Attrs{"body": "main", "seq": i, "class": i})
	}
	eng.applyChanges()
	if len(shared.succIdx) != 1 || shared.succIdx[0].slot != 0 {
		t.Errorf("shared node keeps %d probe indexes, want one on slot 0", len(shared.succIdx))
	}
	if n := len(shared.tokens); n != 1 {
		t.Errorf("shared node holds %d tokens for one body, want 1", n)
	}
	// A cursor move right-activates the shared node in its owner's entry:
	// the owner counts the delta, and a sharer only the join test at its
	// own node.
	before := eng.Metrics()
	wm.Modify(body, Attrs{"cursor": 1})
	eng.applyChanges()
	m := eng.Metrics()
	if owner := m.Rules[0]; owner.Deltas != before.Rules[0].Deltas+1 {
		t.Errorf("owner deltas %d -> %d, want one more", before.Rules[0].Deltas, owner.Deltas)
	}
	if sharer := m.Rules[1]; sharer.Deltas != before.Rules[1].Deltas || sharer.MatchCalls != before.Rules[1].MatchCalls+1 {
		t.Errorf("sharer deltas %d -> %d and match calls %d -> %d, want unchanged and one more",
			before.Rules[1].Deltas, sharer.Deltas, before.Rules[1].MatchCalls, sharer.MatchCalls)
	}
	if m.TokenAsserts-m.TokenRetracts != m.TokensLive {
		t.Errorf("token asserts %d - retracts %d != live %d", m.TokenAsserts, m.TokenRetracts, m.TokensLive)
	}

}

// A shared alpha test must evaluate once per element change no matter how
// many memories consume it.
func TestAlphaEvalDedup(t *testing.T) {
	nop := func(*Tx, *Match) {}
	wm := NewWM(testSchema)
	eng := NewEngine(wm)
	// Two distinct memories (different second test) sharing Eq(kind,add).
	eng.AddRule(&Rule{Name: "r1", Patterns: []Pattern{
		P("op").Eq("kind", "add").Bind("a", "x"),
	}, Action: nop})
	eng.AddRule(&Rule{Name: "r2", Patterns: []Pattern{
		P("op").Eq("kind", "add").Bind("b", "x"),
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

// Selection runs every cycle: reading the agenda must not allocate.
// (Trace rendering and divergence panics — matchIDs, describeMatch — are
// the only string-building paths left, and they are off the cycle loop.)
func TestSelectionAllocFree(t *testing.T) {
	eng := seededSelectionEngine()
	if n := testing.AllocsPerRun(200, func() { eng.selectRete(false) }); n != 0 {
		t.Errorf("selectRete allocates %.1f times per call, want 0", n)
	}
}

// BenchmarkSelection measures selection over a standing conflict set; run
// with -benchmem to see the allocation count.
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
	wm := NewWM(testSchema)
	eng := NewEngine(wm)
	eng.AddRule(&Rule{Name: "single", Patterns: []Pattern{
		P("item").Bind("g", "g"),
	}, Action: nop})
	eng.AddRule(&Rule{Name: "pairs", Patterns: []Pattern{
		P("item").Bind("g", "g"),
		P("item").Bind("g", "g").Bind("n", "n"),
	}, Action: nop})
	for i := 0; i < 24; i++ {
		wm.Make("item", Attrs{"g": i % 4, "n": i})
	}
	eng.applyChanges()
	return eng
}

// The Rete matcher must do strictly less match work than the exhaustive
// oracle on an incremental workload: the oracle re-enumerates every rule
// each cycle, the network reruns only the affected joins. E8's claim that
// the network makes a small fraction of the oracle's pattern tests rests
// on this shape.
func TestReteWorkBelowExhaustive(t *testing.T) {
	wm := NewWM(testSchema)
	for i := 0; i < 60; i++ {
		wm.Make("item", Attrs{"g": i % 6, "n": i})
	}
	eng := NewEngine(wm)
	eng.AddRule(&Rule{Name: "chain", Patterns: []Pattern{
		P("item").Absent("done").Bind("g", "g"),
		P("item").Bind("g", "g").Bind("n", "n"),
	}, Action: func(e *Tx, m *Match) {
		e.Modify(m.El(0), Attrs{"done": true})
	}})
	// Interrupt is polled once per cycle, before selection: count what an
	// exhaustive selection over the same working memory would test there.
	exh := 0
	eng.Interrupt = func() error {
		o := newOracle(wm)
		for _, r := range eng.rules {
			exh += o.enumerate(r, func(*Match) {})
		}
		return nil
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Firings() != 60 {
		t.Fatalf("fired %d times, want 60", eng.Firings())
	}
	if rete := eng.MatchCount(); rete >= exh {
		t.Errorf("rete match work (%d) not below exhaustive (%d)", rete, exh)
	}
}
