package prod

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// testRules builds a rule set that exercises every node shape the Rete
// network distinguishes: constant tests, joins over bound variables,
// self-joins, absence tests, pure predicates, and negation. Actions are
// inert: the conflict-set tests drive the WM directly.
func testRules() []*Rule {
	nop := func(*Tx, *Match) {}
	return []*Rule{
		{Name: "eq", Patterns: []Pattern{P("a").Eq("k", 1)}, Action: nop},
		{Name: "join", Patterns: []Pattern{
			P("a").Bind("g", "g"),
			P("b").Bind("g", "g"),
		}, Action: nop},
		{Name: "self-join", Patterns: []Pattern{
			P("a").Bind("g", "g"),
			P("a").Bind("g", "g").Neq("k", 0),
		}, Action: nop},
		{Name: "neg", Patterns: []Pattern{
			P("a").Bind("g", "g"),
			N("b").Bind("g", "g"),
		}, Action: nop},
		{Name: "absent", Patterns: []Pattern{P("b").Absent("done")}, Action: nop},
		{Name: "pred", Patterns: []Pattern{
			P("a").Pred("k", func(v any) bool { i, _ := v.(int); return i > 2 }),
		}, Action: nop},
		{Name: "triple", Patterns: []Pattern{
			P("a").Bind("g", "g"),
			P("b").Bind("g", "g").Present("k"),
			P("a").Neq("k", 9),
		}, Action: nop},
	}
}

// instantiationSet canonicalizes the active matcher's conflict set as
// sorted "rule:ids" lines.
func instantiationSet(e *Engine) []string {
	var out []string
	for i := range e.rules {
		for _, m := range e.conflictSet(i) {
			ids := make([]string, len(m.Elements))
			for j, el := range m.Elements {
				ids[j] = fmt.Sprintf("%d@%d", el.ID, el.Time)
			}
			out = append(out, fmt.Sprintf("%s:%s", e.rules[i].Name, strings.Join(ids, ",")))
		}
	}
	sort.Strings(out)
	return out
}

// groundTruth enumerates the conflict set with the exhaustive interpreted
// matcher over the same working memory and rules.
func groundTruth(wm *WM, rules []*Rule) []string {
	ref := NewEngine(wm)
	for _, r := range rules {
		ref.AddRule(r)
	}
	var out []string
	for _, r := range ref.rules {
		ref.enumerate(r, false, func(m *Match) {
			ids := make([]string, len(m.Elements))
			for j, el := range m.Elements {
				ids[j] = fmt.Sprintf("%d@%d", el.ID, el.Time)
			}
			out = append(out, fmt.Sprintf("%s:%s", r.Name, strings.Join(ids, ",")))
		})
	}
	sort.Strings(out)
	return out
}

func (e *Engine) instantiations() []string { return instantiationSet(e) }

func diffStrings(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) == len(want) {
		same := true
		for i := range got {
			if got[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	t.Errorf("%s: incremental conflict set diverged\n  incremental: %v\n  from-scratch: %v", label, got, want)
}

// applyRandomOp mutates the working memory with one random make, modify,
// or remove, mirroring what rule actions do.
func applyRandomOp(rng *rand.Rand, wm *WM, live *[]*Element) {
	switch rng.Intn(4) {
	case 0: // make a
		*live = append(*live, wm.Make("a", Attrs{"k": rng.Intn(5), "g": rng.Intn(3)}))
	case 1: // make b
		attrs := Attrs{"g": rng.Intn(3)}
		if rng.Intn(2) == 0 {
			attrs["k"] = rng.Intn(5)
		}
		if rng.Intn(3) == 0 {
			attrs["done"] = true
		}
		*live = append(*live, wm.Make("b", attrs))
	case 2: // modify
		if els := liveOnly(*live); len(els) > 0 {
			el := els[rng.Intn(len(els))]
			attrs := Attrs{}
			switch rng.Intn(4) {
			case 0:
				attrs["k"] = rng.Intn(5)
			case 1:
				attrs["g"] = rng.Intn(3)
			case 2:
				attrs["done"] = true
			case 3:
				attrs["done"] = nil // unset
			}
			wm.Modify(el, attrs)
		}
	case 3: // remove
		if els := liveOnly(*live); len(els) > 0 {
			wm.Remove(els[rng.Intn(len(els))])
		}
	}
}

func liveOnly(els []*Element) []*Element {
	out := els[:0:0]
	for _, el := range els {
		if el.Live() {
			out = append(out, el)
		}
	}
	return out
}

// Property: after arbitrary interleavings of make/modify/remove, applied
// in batches like rule actions produce them, the Rete network's
// incrementally maintained conflict set equals an exhaustive recompute
// over the same WM.
func TestIncrementalConflictSetEqualsRecompute(t *testing.T) {
	rules := testRules()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wm := NewWM()
		eng := NewEngine(wm)
		for _, r := range rules {
			eng.AddRule(r)
		}
		var live []*Element
		for round := 0; round < 25; round++ {
			for n := rng.Intn(4) + 1; n > 0; n-- { // one action's worth of changes
				applyRandomOp(rng, wm, &live)
			}
			eng.applyChanges()
			diffStrings(t, fmt.Sprintf("rete seed %d round %d", seed, round),
				eng.instantiations(), groundTruth(wm, rules))
			if t.Failed() {
				return
			}
		}
	}
}

// Fuzz: the same equivalence, driven by arbitrary byte strings so the
// fuzzer can hunt for change sequences the random walk misses.
func FuzzIncrementalConflictSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 8, 9, 16, 42})
	f.Add([]byte{255, 254, 0, 0, 7, 7, 7})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	// Join-ordering stress seeds: interleavings that historically trip
	// token maintenance. Byte decoding: b%4 selects make-a / make-b /
	// modify / remove; b%8==5 ends a batch, so runs of non-5 bytes pack
	// many changes into one propagation.
	//
	// Same-g "a" elements asserted together, then one's g flipped and the
	// other removed in a single batch: self-join tokens must appear once
	// per ordered pair and retract cleanly.
	f.Add([]byte{16, 32, 16, 32, 13, 78, 206, 138, 13, 39, 7, 255})
	// make/remove churn of "b" elements against standing "a" partners:
	// negated-pattern tokens flip blocked/unblocked repeatedly within and
	// across batches.
	f.Add([]byte{16, 48, 80, 5, 9, 25, 41, 13, 3, 19, 35, 5, 9, 3, 13, 9, 3, 5})
	// modify-heavy run on shared join attributes with no intervening
	// batch boundaries until the end: rebinding g migrates tokens between
	// join partners while asserts/retracts for the same elements are
	// still queued.
	f.Add([]byte{16, 32, 48, 80, 94, 222, 94, 222, 158, 30, 94, 206, 78, 13})
	// remove-then-remake of join pivots at alternating batch boundaries.
	f.Add([]byte{16, 48, 3, 5, 16, 13, 3, 21, 16, 29, 3, 5, 19, 35, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		rules := testRules()
		wm := NewWM()
		eng := NewEngine(wm)
		for _, r := range rules {
			eng.AddRule(r)
		}
		var live []*Element
		for i := 0; i < len(data); i++ {
			b := data[i]
			switch b % 4 {
			case 0:
				live = append(live, wm.Make("a", Attrs{"k": int(b>>2) % 5, "g": int(b>>4) % 3}))
			case 1:
				live = append(live, wm.Make("b", Attrs{"g": int(b>>2) % 3}))
			case 2:
				if els := liveOnly(live); len(els) > 0 {
					el := els[int(b>>2)%len(els)]
					if b>>7 == 0 {
						wm.Modify(el, Attrs{"k": int(b>>3) % 5})
					} else {
						wm.Modify(el, Attrs{"g": int(b>>3) % 3, "done": true})
					}
				}
			case 3:
				if els := liveOnly(live); len(els) > 0 {
					wm.Remove(els[int(b>>2)%len(els)])
				}
			}
			if b%8 == 5 || i == len(data)-1 { // batch boundary
				eng.applyChanges()
				want := groundTruth(wm, rules)
				if got := eng.instantiations(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("rete conflict set diverged at byte %d\n  rete: %v\n  from-scratch: %v", i, got, want)
				}
			}
		}
	})
}

// The cross-check mode must agree with itself on a workload that churns
// every rule shape, including negations firing and un-firing.
func TestCrossCheckTokenWorkload(t *testing.T) {
	wm := NewWM()
	for i := 0; i < 30; i++ {
		wm.Make("a", Attrs{"k": i % 5, "g": i % 3})
	}
	eng := NewEngine(wm)
	eng.CrossCheck = true
	eng.AddRule(&Rule{
		Name:     "promote",
		Patterns: []Pattern{P("a").Absent("done").Bind("g", "g"), N("b").Bind("g", "g")},
		Action: func(e *Tx, m *Match) {
			e.WM().Modify(m.El(0), Attrs{"done": true})
			if m.El(0).Int("k") == 0 {
				e.WM().Make("b", Attrs{"g": m.El(0).Get("g")})
			}
		},
	})
	eng.AddRule(&Rule{
		Name:     "retire",
		Patterns: []Pattern{P("b").Bind("g", "g"), P("a").Eq("done", true).Bind("g", "g")},
		Action: func(e *Tx, m *Match) {
			e.WM().Remove(m.El(1))
		},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Firings() == 0 {
		t.Fatal("workload never fired")
	}
}

// Exhaustive mode must produce the identical firing trace to the default
// incremental matcher.
func TestExhaustiveTraceEquivalence(t *testing.T) {
	runTrace := func(exhaustive bool) string {
		wm := NewWM()
		for i := 0; i < 20; i++ {
			wm.Make("a", Attrs{"k": i % 4, "g": i % 3})
		}
		eng := NewEngine(wm)
		eng.Exhaustive = exhaustive
		var sb strings.Builder
		eng.TraceWriter = &sb
		eng.AddRule(&Rule{
			Name:     "step",
			Patterns: []Pattern{P("a").Absent("done").Bind("k", "k")},
			Action: func(e *Tx, m *Match) {
				e.WM().Modify(m.El(0), Attrs{"done": true})
			},
		})
		eng.AddRule(&Rule{
			Name:     "pair",
			Patterns: []Pattern{P("a").Eq("done", true).Bind("g", "g"), P("a").Absent("done").Bind("g", "g")},
			Action: func(e *Tx, m *Match) {
				e.WM().Remove(m.El(1))
			},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	inc, exh := runTrace(false), runTrace(true)
	if inc != exh {
		t.Errorf("traces diverge:\nincremental:\n%s\nexhaustive:\n%s", inc, exh)
	}
	if inc == "" {
		t.Fatal("empty trace")
	}
}
