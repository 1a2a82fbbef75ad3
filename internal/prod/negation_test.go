package prod

import (
	"fmt"
	"strings"
	"testing"
)

// Table-driven coverage for negated-pattern semantics under deltas:
// elements appearing and disappearing flip N(...) patterns on and off
// mid-run, across batches that interleave make/modify/remove. Every step
// asserts the Rete network's conflict set (negative tokens with counted
// blockers) against the exhaustive matcher, plus an explicit expectation
// of which rules currently have instantiations.
func TestNegationUnderDeltas(t *testing.T) {
	nop := func(*Tx, *Match) {}
	// Rules covering the negation shapes the compiler distinguishes:
	// joined negation (variable from an earlier pattern), constant-test
	// negation, negation with a fresh (existential) variable, and
	// same-class negation (blocker and subject share an alpha memory).
	rules := []*Rule{
		{Name: "no-partner", Patterns: []Pattern{ // joined negation
			P("job").Bind("g", "g"),
			N("lock").Bind("g", "g"),
		}, Action: nop},
		{Name: "no-flag", Patterns: []Pattern{ // constant-test negation
			P("job").Present("g"),
			N("lock").Eq("hard", true),
		}, Action: nop},
		{Name: "no-any", Patterns: []Pattern{ // fresh-variable (existential) negation
			P("job").Eq("kind", "root"),
			N("lock").Bind("owner", "o"),
		}, Action: nop},
		{Name: "lone", Patterns: []Pattern{ // same-class negation
			P("job").Bind("g", "g").Absent("shadow"),
			N("job").Eq("shadow", true).Bind("g", "g"),
		}, Action: nop},
	}

	type step struct {
		label string
		ops   func(wm *WM, el map[string]*Element)
		want  map[string]int // rule -> expected conflict-set size
	}
	steps := []step{
		{
			label: "seed: two jobs, no locks — every negation passes",
			ops: func(wm *WM, el map[string]*Element) {
				el["j1"] = wm.Make("job", Attrs{"g": 1, "kind": "root"})
				el["j2"] = wm.Make("job", Attrs{"g": 2, "kind": "leaf"})
			},
			want: map[string]int{"no-partner": 2, "no-flag": 2, "no-any": 1, "lone": 2},
		},
		{
			label: "lock appears on g=1: joined negation flips off for j1, existential for all",
			ops: func(wm *WM, el map[string]*Element) {
				el["l1"] = wm.Make("lock", Attrs{"g": 1, "owner": "a"})
			},
			want: map[string]int{"no-partner": 1, "no-flag": 2, "no-any": 0, "lone": 2},
		},
		{
			label: "lock migrates g=1 -> g=2 in one modify: blocked set swaps",
			ops: func(wm *WM, el map[string]*Element) {
				wm.Modify(el["l1"], Attrs{"g": 2})
			},
			want: map[string]int{"no-partner": 1, "no-flag": 2, "no-any": 0, "lone": 2},
		},
		{
			label: "lock hardens: constant-test negation flips off",
			ops: func(wm *WM, el map[string]*Element) {
				wm.Modify(el["l1"], Attrs{"hard": true})
			},
			want: map[string]int{"no-partner": 1, "no-flag": 0, "no-any": 0, "lone": 2},
		},
		{
			label: "second lock made and first removed in the same batch",
			ops: func(wm *WM, el map[string]*Element) {
				el["l2"] = wm.Make("lock", Attrs{"g": 1, "owner": "b"})
				wm.Remove(el["l1"])
			},
			want: map[string]int{"no-partner": 1, "no-flag": 2, "no-any": 0, "lone": 2},
		},
		{
			label: "shadow job appears for g=2: same-class negation flips off",
			ops: func(wm *WM, el map[string]*Element) {
				el["s2"] = wm.Make("job", Attrs{"g": 2, "shadow": true})
			},
			want: map[string]int{"no-partner": 2, "no-flag": 3, "no-any": 0, "lone": 1},
		},
		{
			label: "shadow unset via modify: the element stops blocking without leaving WM",
			ops: func(wm *WM, el map[string]*Element) {
				wm.Modify(el["s2"], Attrs{"shadow": nil, "g": 2})
			},
			want: map[string]int{"no-partner": 2, "no-flag": 3, "no-any": 0, "lone": 3},
		},
		{
			label: "all locks gone: every negation back on",
			ops: func(wm *WM, el map[string]*Element) {
				wm.Remove(el["l2"])
			},
			want: map[string]int{"no-partner": 3, "no-flag": 3, "no-any": 1, "lone": 3},
		},
		{
			label: "remove a subject while its blocker appears, one batch",
			ops: func(wm *WM, el map[string]*Element) {
				wm.Remove(el["j2"])
				el["l3"] = wm.Make("lock", Attrs{"g": 1, "owner": "c"})
			},
			want: map[string]int{"no-partner": 1, "no-flag": 2, "no-any": 0, "lone": 2},
		},
	}

	wm := NewWM()
	eng := NewEngine(wm)
	for _, r := range rules {
		eng.AddRule(r)
	}
	el := map[string]*Element{}
	for i, st := range steps {
		st.ops(wm, el)
		eng.applyChanges()
		want := groundTruth(wm, rules)
		diffStrings(t, fmt.Sprintf("step %d (%s) rete", i, st.label), eng.instantiations(), want)
		got := map[string]int{}
		for _, line := range want {
			got[line[:strings.IndexByte(line, ':')]]++
		}
		for rule, n := range st.want {
			if got[rule] != n {
				t.Errorf("step %d (%s): rule %s has %d instantiations, want %d",
					i, st.label, rule, got[rule], n)
			}
		}
		for rule, n := range got {
			if _, listed := st.want[rule]; !listed && n > 0 {
				t.Errorf("step %d (%s): rule %s unexpectedly has %d instantiations",
					i, st.label, rule, n)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// A negation must also gate firing mid-run: this drives Run with rules
// whose actions create and destroy blockers, in cross-check mode, and
// pins the full firing trace.
func TestNegationFiringFlips(t *testing.T) {
	build := func(mode func(*Engine)) (string, int) {
		wm := NewWM()
		for i := 0; i < 6; i++ {
			wm.Make("task", Attrs{"g": i % 2, "n": i})
		}
		eng := NewEngine(wm)
		mode(eng)
		var sb strings.Builder
		eng.TraceWriter = &sb
		// claim: tasks with no lock on their group take one, creating the
		// blocker that disables claims for the rest of the group.
		eng.AddRule(&Rule{
			Name:     "claim",
			Patterns: []Pattern{P("task").Absent("got").Bind("g", "g"), N("lock").Bind("g", "g")},
			Action: func(e *Tx, m *Match) {
				e.WM().Modify(m.El(0), Attrs{"got": true})
				e.WM().Make("lock", Attrs{"g": m.Get("g")})
			},
		})
		// release: a claimed task's lock is removed, re-enabling claims.
		eng.AddRule(&Rule{
			Name:     "release",
			Patterns: []Pattern{P("lock").Bind("g", "g"), P("task").Eq("got", true).Bind("g", "g")},
			Action: func(e *Tx, m *Match) {
				e.WM().Remove(m.El(0))
				e.WM().Remove(m.El(1))
			},
		})
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return sb.String(), eng.Firings()
	}
	trace, firings := build(func(e *Engine) { e.CrossCheck = true })
	if firings != 12 { // 6 claims + 6 releases
		t.Errorf("fired %d times, want 12\n%s", firings, trace)
	}
	for _, mode := range []struct {
		label string
		set   func(*Engine)
	}{
		{"rete", func(e *Engine) {}},
		{"exhaustive", func(e *Engine) { e.Exhaustive = true }},
	} {
		if got, _ := build(mode.set); got != trace {
			t.Errorf("%s trace diverges:\ncross-check:\n%s\n%s:\n%s", mode.label, trace, mode.label, got)
		}
	}
}
