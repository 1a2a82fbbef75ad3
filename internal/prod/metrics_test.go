package prod

import (
	"strings"
	"testing"
	"time"
)

// A rule with more than four positive patterns spills its refraction
// signature into the FNV-1a extra hash; refraction must still hold.
func TestRefractionOverflowWidePattern(t *testing.T) {
	wm := NewWM()
	els := make([]*Element, 6)
	pats := make([]Pattern, 6)
	for i := range els {
		class := string(rune('p' + i))
		els[i] = wm.Make(class, Attrs{"n": i})
		pats[i] = P(class)
	}
	eng := NewEngine(wm)
	fired := 0
	eng.AddRule(&Rule{
		Name:     "wide",
		Patterns: pats,
		Action:   func(e *Tx, m *Match) { fired++ }, // no WM change
	})
	run(t, eng)
	if fired != 1 {
		t.Errorf("wide rule fired %d times, want 1 (refraction over hashed signature)", fired)
	}
	// Touching an element past the inline signature (position 5) makes
	// this a new instantiation: it must fire exactly once more.
	wm.Modify(els[5], Attrs{"n": 99})
	run(t, eng)
	if fired != 2 {
		t.Errorf("wide rule fired %d times after modify, want 2", fired)
	}
}

// The refraction key must not allocate, even past four elements — it is
// computed for every candidate on every cycle.
func TestRefractionKeyAllocFree(t *testing.T) {
	wm := NewWM()
	m := &Match{Rule: &Rule{Name: "wide", index: 3}}
	for i := 0; i < 7; i++ {
		m.Elements = append(m.Elements, wm.Make("c", nil))
	}
	eng := NewEngine(wm)
	if n := testing.AllocsPerRun(200, func() { _ = eng.refractionKey(m) }); n != 0 {
		t.Errorf("refractionKey allocates %.1f times per call, want 0", n)
	}
}

func TestNonComparableAttrPanics(t *testing.T) {
	expectPanic := func(name string, f func(), wants ...string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic for non-comparable attribute value", name)
				return
			}
			msg, _ := r.(string)
			for _, w := range wants {
				if !strings.Contains(msg, w) {
					t.Errorf("%s: panic %q does not name %q", name, msg, w)
				}
			}
		}()
		f()
	}
	wm := NewWM()
	expectPanic("Make", func() {
		wm.Make("net", Attrs{"pins": []int{1, 2}})
	}, "net", "^pins", "[]int")
	el := wm.Make("net", Attrs{"w": 8})
	expectPanic("Modify", func() {
		wm.Modify(el, Attrs{"fanout": map[string]int{"a": 1}})
	}, "net", "^fanout", "map[string]int")
	// The failed Make/Modify must not have corrupted the element or WM.
	if el.Int("w") != 8 || !el.Live() {
		t.Error("element damaged by rejected attribute value")
	}
}

func TestEngineMetrics(t *testing.T) {
	wm := NewWM()
	for i := 0; i < 8; i++ {
		wm.Make("a", Attrs{"k": i})
	}
	eng := NewEngine(wm)
	eng.AddRule(&Rule{
		Name: "consume", Category: "test",
		Patterns: []Pattern{P("a").Absent("done")},
		Action:   func(e *Tx, m *Match) { e.WM().Modify(m.El(0), Attrs{"done": true}) },
	})
	eng.AddRule(&Rule{
		Name: "idle", Category: "test",
		Patterns: []Pattern{P("zzz")},
		Action:   func(e *Tx, m *Match) {},
	})
	run(t, eng)

	m := eng.Metrics()
	if m.Firings != eng.Firings() || m.Firings != 8 {
		t.Errorf("Firings = %d (engine %d), want 8", m.Firings, eng.Firings())
	}
	if m.Cycles == 0 || m.MatchCalls != eng.MatchCount() || m.MatchCalls == 0 {
		t.Errorf("Cycles=%d MatchCalls=%d (engine %d): metrics not populated", m.Cycles, m.MatchCalls, eng.MatchCount())
	}
	if m.Deltas == 0 {
		t.Error("incremental run recorded no delta refreshes")
	}
	if m.ConflictPeak == 0 || m.ConflictMean <= 0 {
		t.Errorf("conflict-set stats empty: peak=%d mean=%g", m.ConflictPeak, m.ConflictMean)
	}
	if len(m.ConflictSeries) == 0 || m.SeriesStride == 0 {
		t.Error("conflict-set series empty")
	}
	if len(m.Rules) != 2 {
		t.Fatalf("got %d rule entries, want 2", len(m.Rules))
	}
	var consume RuleMetrics
	for _, r := range m.Rules {
		if r.Name == "consume" {
			consume = r
		}
	}
	if consume.Firings != 8 || consume.Added == 0 {
		t.Errorf("consume rule metrics: %+v", consume)
	}

	top := m.TopRulesByMatchTime(1)
	if len(top) != 1 {
		t.Fatalf("TopRulesByMatchTime(1) returned %d entries", len(top))
	}
	for _, r := range m.Rules {
		if r.MatchTime > top[0].MatchTime {
			t.Errorf("top rule %q (%v) is not the max (%q %v)", top[0].Name, top[0].MatchTime, r.Name, r.MatchTime)
		}
	}
}

// Match time covers whichever matcher drives selection: an exhaustive run
// charges each rule's enumeration to it, while CrossCheck's exhaustive
// reference leg leaves the Rete run's counters untouched.
func TestExhaustiveMatchTime(t *testing.T) {
	build := func(mode func(*Engine)) Metrics {
		wm := NewWM()
		for i := 0; i < 8; i++ {
			wm.Make("a", Attrs{"k": i})
		}
		eng := NewEngine(wm)
		mode(eng)
		eng.AddRule(&Rule{
			Name:     "consume",
			Patterns: []Pattern{P("a").Absent("done")},
			Action:   func(e *Tx, m *Match) { e.WM().Modify(m.El(0), Attrs{"done": true}) },
		})
		run(t, eng)
		return eng.Metrics()
	}
	exh := build(func(e *Engine) { e.Exhaustive = true })
	if r := exh.Rules[0]; r.Firings != 8 || r.MatchTime <= 0 || r.MatchCalls == 0 {
		t.Errorf("exhaustive run: consume fired %d times with match time %v over %d tests, want 8 firings and non-zero time",
			r.Firings, r.MatchTime, r.MatchCalls)
	}
	if exh.MatchTime != exh.Rules[0].MatchTime {
		t.Errorf("engine match time %v != rule sum %v", exh.MatchTime, exh.Rules[0].MatchTime)
	}
	rete := build(func(e *Engine) {})
	cross := build(func(e *Engine) { e.CrossCheck = true })
	if cross.MatchCalls != rete.MatchCalls || cross.Rules[0].MatchCalls != rete.Rules[0].MatchCalls {
		t.Errorf("cross-check counted %d pattern tests (rule %d), want the Rete run's %d (rule %d)",
			cross.MatchCalls, cross.Rules[0].MatchCalls, rete.MatchCalls, rete.Rules[0].MatchCalls)
	}
}

func TestMetricsMerge(t *testing.T) {
	a := Metrics{
		Cycles: 10, Firings: 5, MatchCalls: 100, Rebuilds: 2, Deltas: 8,
		Added: 20, Invalidated: 15, ConflictPeak: 7, ConflictMean: 4,
		Rules: []RuleMetrics{{Name: "r1", MatchTime: 3 * time.Millisecond}},
	}
	b := Metrics{
		Cycles: 30, Firings: 15, MatchCalls: 300, Rebuilds: 1, Deltas: 24,
		Added: 60, Invalidated: 45, ConflictPeak: 5, ConflictMean: 8,
		Rules: []RuleMetrics{{Name: "r2", MatchTime: 9 * time.Millisecond}},
	}
	m := a.Merge(b)
	if m.Cycles != 40 || m.Firings != 20 || m.MatchCalls != 400 ||
		m.Rebuilds != 3 || m.Deltas != 32 || m.Added != 80 || m.Invalidated != 60 {
		t.Errorf("Merge counters wrong: %+v", m)
	}
	if m.ConflictPeak != 7 {
		t.Errorf("ConflictPeak = %d, want max 7", m.ConflictPeak)
	}
	if want := (4.0*10 + 8.0*30) / 40; m.ConflictMean != want {
		t.Errorf("ConflictMean = %g, want cycle-weighted %g", m.ConflictMean, want)
	}
	if len(m.Rules) != 2 {
		t.Errorf("Merge kept %d rule entries, want 2", len(m.Rules))
	}
	if got := m.TopRulesByMatchTime(5); len(got) != 2 || got[0].Name != "r2" {
		t.Errorf("TopRulesByMatchTime after merge = %+v", got)
	}
}
