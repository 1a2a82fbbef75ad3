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
// self-joins, absence tests, cross products, negation, and first nodes
// shared across rules. join owns the first node P("a").Bind("g", "g"),
// and self-join, neg, triple and alias share it, alias under another
// variable name; same-mem has a later pattern on that node's memory and
// keeps its own. pair owns P("b").Bind("g", "g") with a later pattern on
// its memory, and pair-sharer shares it. Actions are inert: the
// conflict-set tests drive the WM directly.
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
			P("a").Bind("g", "g").Absent("done"),
		}, Action: nop},
		{Name: "neg", Patterns: []Pattern{
			P("a").Bind("g", "g"),
			N("b").Bind("g", "g"),
		}, Action: nop},
		{Name: "absent", Patterns: []Pattern{P("b").Absent("done")}, Action: nop},
		{Name: "eq-other", Patterns: []Pattern{P("a").Eq("k", 3)}, Action: nop},
		{Name: "triple", Patterns: []Pattern{
			P("a").Bind("g", "g"),
			P("b").Bind("g", "g").Bind("k", "k"),
			P("a"),
		}, Action: nop},
		{Name: "alias", Patterns: []Pattern{
			P("a").Bind("g", "x"),
			P("b").Bind("g", "x").Absent("done"),
		}, Action: nop},
		{Name: "same-mem", Patterns: []Pattern{
			P("a").Bind("g", "g"),
			P("a").Bind("g", "g"),
		}, Action: nop},
		{Name: "pair", Patterns: []Pattern{
			P("b").Bind("g", "g"),
			P("b").Bind("g", "g"),
		}, Action: nop},
		{Name: "pair-sharer", Patterns: []Pattern{
			P("b").Bind("g", "h"),
			P("a").Bind("g", "h").Bind("k", "k"),
		}, Action: nop},
	}
}

// instKey renders an instantiation as "rule:id@time,...".
func instKey(m *Match) string {
	ids := make([]string, len(m.Elements))
	for j, el := range m.Elements {
		ids[j] = fmt.Sprintf("%d@%d", el.ID, el.Time)
	}
	return fmt.Sprintf("%s:%s", m.Rule.Name, strings.Join(ids, ","))
}

// conflictSet returns rule i's instantiations as the Rete network holds
// them.
func (e *Engine) conflictSet(i int) []*Match {
	rr := e.rete.rules[i]
	var out []*Match
	for _, t := range rr.nodes[len(rr.nodes)-1].tokens {
		if t.match != nil {
			out = append(out, t.match)
		}
	}
	return out
}

// instantiationSet canonicalizes the active matcher's conflict set as
// sorted "rule:ids" lines.
func instantiationSet(e *Engine) []string {
	var out []string
	for i := range e.rules {
		for _, m := range e.conflictSet(i) {
			out = append(out, instKey(m))
		}
	}
	sort.Strings(out)
	return out
}

// exhaustiveMatches enumerates the conflict set with the exhaustive
// oracle over the same working memory and rules.
func exhaustiveMatches(wm *WM, rules []*Rule) []*Match {
	ref := NewEngine(wm)
	for _, r := range rules {
		ref.AddRule(r)
	}
	o := newOracle(wm)
	var out []*Match
	for _, r := range ref.rules {
		o.enumerate(r, func(m *Match) { out = append(out, m) })
	}
	return out
}

// groundTruth is the exhaustive conflict set as sorted "rule:ids" lines.
func groundTruth(wm *WM, rules []*Rule) []string {
	var out []string
	for _, m := range exhaustiveMatches(wm, rules) {
		out = append(out, instKey(m))
	}
	sort.Strings(out)
	return out
}

// agendaOrder renders e's agenda best first.
func agendaOrder(e *Engine) []string {
	out := []string{}
	for i := len(e.agenda.q) - 1; i >= 0; i-- {
		out = append(out, instKey(e.agenda.q[i]))
	}
	return out
}

// newOracleEngine registers rules on an engine over wm in CrossCheck mode,
// so its oracle records the key of every instantiation fireHead spends:
// the record wantAgenda filters by.
func newOracleEngine(wm *WM, rules []*Rule) *Engine {
	eng := NewEngine(wm)
	eng.CrossCheck = true
	for _, r := range rules {
		eng.AddRule(r)
	}
	return eng
}

// wantAgenda is what e's agenda must hold between cycles: every
// instantiation of the exhaustive conflict set whose key e's oracle has
// not recorded as fired, best first by betterRank under current time tags.
func wantAgenda(e *Engine, wm *WM, rules []*Rule) []string {
	fired := e.exhaustive().fired
	var ms []*Match
	for _, m := range exhaustiveMatches(wm, rules) {
		if !fired[refractionKey(m)] {
			ms = append(ms, m)
		}
	}
	sort.Slice(ms, func(i, j int) bool {
		var ki, kj recencyRank
		ki.init(ms[i])
		kj.init(ms[j])
		return betterRank(ms[i], &ki, ms[j], &kj)
	})
	out := []string{}
	for _, m := range ms {
		out = append(out, instKey(m))
	}
	return out
}

// fireHead spends the agenda's top entry the way Run does, without running
// its action.
func fireHead(e *Engine) {
	if m := e.agenda.best(e.Host); m != nil {
		e.fire(m)
	}
}

// fireBest spends the best agenda entry of the rule registered i-th, as Run
// would once every entry above it failed its Where. The head alone rarely
// reaches a one-element instantiation, such as neg's, that shares its
// element with the two-element instantiations ranked above it.
func fireBest(e *Engine, i int) {
	for j := len(e.agenda.q) - 1; j >= 0; j-- {
		if m := e.agenda.q[j]; m.Rule.index == i {
			e.fire(m)
			return
		}
	}
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
	t.Errorf("%s: diverged\n  incremental: %v\n  from-scratch: %v", label, got, want)
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
// over the same WM, and its agenda lists exactly the unspent part of it in
// conflict-resolution order. Firing the agenda's head, or the best entry
// of a random rule, now and then puts spent instantiations in the conflict
// set, which the random modifies then revive; a spent negated
// instantiation must stay spent when its blocker comes and goes.
func TestIncrementalConflictSetEqualsRecompute(t *testing.T) {
	rules := testRules()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wm := NewWM(testSchema)
		eng := newOracleEngine(wm, rules)
		var live []*Element
		for round := 0; round < 25; round++ {
			for n := rng.Intn(4) + 1; n > 0; n-- { // one action's worth of changes
				applyRandomOp(rng, wm, &live)
			}
			eng.applyChanges()
			label := fmt.Sprintf("seed %d round %d", seed, round)
			diffStrings(t, label+" conflict set", eng.instantiations(), groundTruth(wm, rules))
			diffStrings(t, label+" agenda", agendaOrder(eng), wantAgenda(eng, wm, rules))
			if rng.Intn(3) == 0 {
				fireHead(eng)
				diffStrings(t, label+" agenda after firing", agendaOrder(eng), wantAgenda(eng, wm, rules))
			}
			if rng.Intn(3) == 0 {
				fireBest(eng, rng.Intn(len(rules)))
				diffStrings(t, label+" agenda after firing one rule", agendaOrder(eng), wantAgenda(eng, wm, rules))
			}
			if t.Failed() {
				return
			}
		}
	}
}

// Fuzz: the same equivalences, driven by arbitrary byte strings so the
// fuzzer can hunt for change sequences the random walk misses. A batch
// boundary byte b (b%8 == 5) fires the agenda's head when b&8 is set, and
// otherwise, when b&16 is set, the best entry of rule b>>5.
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
	// Boundaries that fire the head (13, 29), then k-modifies (2, 10, 18)
	// that change no join attribute: the spent and the queued
	// instantiations holding the modified element must be re-ranked.
	f.Add([]byte{16, 32, 48, 1, 13, 2, 5, 16, 29, 10, 13, 18, 29, 2, 5})
	// Refraction across a blocker flip: make a (g 0); the boundary 117
	// fires neg's instantiation of it; make b (g 0), which blocks it at
	// boundary 5; remove that b (11) and end a batch (5). neg derives the
	// fired instantiation again, with the same elements and time tags, and
	// it must stay off the agenda.
	f.Add([]byte{0, 117, 1, 5, 11, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		rules := testRules()
		wm := NewWM(testSchema)
		eng := newOracleEngine(wm, rules)
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
				checkAgenda := func(when string) {
					want := wantAgenda(eng, wm, rules)
					if got := agendaOrder(eng); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("agenda diverged %s at byte %d\n  agenda: %v\n  want:   %v", when, i, got, want)
					}
				}
				checkAgenda("after the batch")
				switch {
				case b&8 != 0: // every other boundary byte fires the head
					fireHead(eng)
					checkAgenda("after firing")
				case b&16 != 0:
					fireBest(eng, int(b>>5)%len(rules))
					checkAgenda("after firing one rule")
				}
			}
		}
	})
}

// The cross-check mode must agree with itself on a workload that churns
// every rule shape, including negations firing and un-firing.
func TestCrossCheckTokenWorkload(t *testing.T) {
	wm := NewWM(testSchema)
	for i := 0; i < 30; i++ {
		wm.Make("a", Attrs{"k": i % 5, "g": i % 3})
	}
	eng := NewEngine(wm)
	eng.CrossCheck = true
	eng.AddRule(&Rule{
		Name:     "promote",
		Patterns: []Pattern{P("a").Absent("done").Bind("g", "g"), N("b").Bind("g", "g")},
		Action: func(e *Tx, m *Match) {
			e.Modify(m.El(0), Attrs{"done": true})
			if m.El(0).Int("k") == 0 {
				e.Make("b", Attrs{"g": m.El(0).Get("g")})
			}
		},
	})
	eng.AddRule(&Rule{
		Name:     "retire",
		Patterns: []Pattern{P("b").Bind("g", "g"), P("a").Eq("done", true).Bind("g", "g")},
		Action: func(e *Tx, m *Match) {
			e.Remove(m.El(1))
		},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Firings() == 0 {
		t.Fatal("workload never fired")
	}
}

// A cross-checked run must produce the identical firing trace to a plain
// one: the exhaustive leg only watches.
func TestCrossCheckTraceEquivalence(t *testing.T) {
	runTrace := func(crossCheck bool) string {
		wm := NewWM(testSchema)
		for i := 0; i < 20; i++ {
			wm.Make("a", Attrs{"k": i % 4, "g": i % 3})
		}
		eng := NewEngine(wm)
		eng.CrossCheck = crossCheck
		var sb strings.Builder
		eng.TraceWriter = &sb
		eng.AddRule(&Rule{
			Name:     "step",
			Patterns: []Pattern{P("a").Absent("done").Bind("k", "k")},
			Action: func(e *Tx, m *Match) {
				e.Modify(m.El(0), Attrs{"done": true})
			},
		})
		eng.AddRule(&Rule{
			Name:     "pair",
			Patterns: []Pattern{P("a").Eq("done", true).Bind("g", "g"), P("a").Absent("done").Bind("g", "g")},
			Action: func(e *Tx, m *Match) {
				e.Remove(m.El(1))
			},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	plain, cross := runTrace(false), runTrace(true)
	if plain != cross {
		t.Errorf("traces diverge:\nplain:\n%s\ncross-checked:\n%s", plain, cross)
	}
	if plain == "" {
		t.Fatal("empty trace")
	}
}
