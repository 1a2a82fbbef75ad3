package prod

import (
	"fmt"
	"strings"
	"testing"
)

// A toy host: a counter store mutated only through registered effects,
// standing in for the rtl.Design in core.
type toyHost struct {
	vals map[string]int
}

func (h *toyHost) Apply(name string, args []any) (any, error) {
	switch name {
	case "set":
		h.vals[args[0].(string)] = args[1].(int)
		return nil, nil
	case "sum":
		total := 0
		for _, v := range h.vals {
			total += v
		}
		h.vals["sum"] = total
		return total, nil
	default:
		return nil, fmt.Errorf("unknown effect %q", name)
	}
}

func journalRules() []*Rule {
	return []*Rule{
		{
			Name:     "count",
			Patterns: []Pattern{P("tok").Absent("done").Bind("n", "n")},
			Action: func(tx *Tx, m *Match) {
				if _, err := tx.Do("set", fmt.Sprintf("k%d", m.Int("n")), m.Int("n")*10); err != nil {
					tx.Halt()
					return
				}
				tx.Modify(m.El(0), Attrs{"done": true})
			},
		},
		{
			Name:     "finish",
			Patterns: []Pattern{P("ctl"), N("tok").Absent("done")},
			Action: func(tx *Tx, m *Match) {
				if _, err := tx.Do("sum"); err != nil {
					tx.Halt()
					return
				}
				tx.Make("result", Attrs{"ok": true})
				tx.Remove(m.El(0))
				tx.Halt()
			},
		},
	}
}

func recordToyRun(t *testing.T) (*Journal, *toyHost, string) {
	t.Helper()
	wm := NewWM(testSchema)
	eng := NewEngine(wm)
	host := &toyHost{vals: map[string]int{}}
	eng.Host = host
	j := eng.RecordJournal(nil)
	for _, r := range journalRules() {
		eng.AddRule(r)
	}
	wm.Make("ctl", nil)
	for i := 1; i <= 3; i++ {
		wm.Make("tok", Attrs{"n": i})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return j, host, wm.Dump()
}

func TestJournalRecordsSeedAndFirings(t *testing.T) {
	j, host, _ := recordToyRun(t)
	if len(j.Seed) != 4 {
		t.Fatalf("seed effects = %d, want 4 (ctl + 3 tok makes)", len(j.Seed))
	}
	firings, effects := j.Counts()
	if firings != 4 {
		t.Fatalf("firings = %d, want 4 (3 counts + finish)", firings)
	}
	if effects <= firings {
		t.Fatalf("effects = %d, want more than one per firing", effects)
	}
	if host.vals["sum"] != 60 {
		t.Fatalf("host sum = %d, want 60", host.vals["sum"])
	}
	last := j.Firings[len(j.Firings)-1]
	if last.Rule != "finish" {
		t.Fatalf("last firing = %s, want finish", last.Rule)
	}
	var kinds []EffectKind
	for _, eff := range last.Effects {
		kinds = append(kinds, eff.Kind)
	}
	want := []EffectKind{EffDo, EffMake, EffRemove, EffHalt}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("finish effects = %v, want %v", kinds, want)
	}
	if last.Effects[0].Result == nil || last.Effects[0].Result.Scalar != 60 {
		t.Fatalf("sum result not journaled: %+v", last.Effects[0].Result)
	}
	var b strings.Builder
	j.WriteText(&b)
	for _, want := range []string{"seed:", "do set(", "do sum() -> 60", "halt"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("journal text missing %q:\n%s", want, b.String())
		}
	}
}

// failingHost fails every effect from its failOn-th call on.
type failingHost struct{ calls, failOn int }

func (h *failingHost) Apply(name string, args []any) (any, error) {
	h.calls++
	if h.calls >= h.failOn {
		return nil, fmt.Errorf("call %d refused", h.calls)
	}
	return nil, nil
}

// The engine owns effect errors: an effect that fails halts the engine
// after its firing, no later rule fires, the journal ends with that
// firing, and Run returns the first error, naming the rule and the effect.
func TestEffectErrorHaltsEngine(t *testing.T) {
	wm := NewWM(testSchema)
	eng := NewEngine(wm)
	eng.Host = &failingHost{failOn: 2}
	j := eng.RecordJournal(nil)
	var fired []string
	eng.AddRule(&Rule{
		Name:     "count",
		Patterns: []Pattern{P("tok").Absent("done").Bind("n", "n")},
		Action: func(tx *Tx, m *Match) {
			fired = append(fired, fmt.Sprintf("count %d", m.Int("n")))
			if _, err := tx.Do("set", m.Int("n")); err != nil {
				return
			}
			tx.Modify(m.El(0), Attrs{"done": true})
		},
	})
	eng.AddRule(&Rule{
		Name:     "cleanup",
		Patterns: []Pattern{P("tok").Eq("done", true)},
		Action:   func(tx *Tx, m *Match) { fired = append(fired, "cleanup") },
	})
	for i := 1; i <= 3; i++ {
		wm.Make("tok", Attrs{"n": i})
	}
	err := eng.Run()
	const want = "prod: rule count: effect set: call 2 refused"
	if err == nil || err.Error() != want {
		t.Fatalf("Run error %v, want %s", err, want)
	}
	if got := fmt.Sprint(fired); got != "[count 3 cleanup count 2]" {
		t.Errorf("fired %s, want [count 3 cleanup count 2]", got)
	}
	if eng.Firings() != 3 {
		t.Errorf("firings %d, want 3", eng.Firings())
	}
	last := j.Firings[len(j.Firings)-1]
	if len(j.Firings) != 3 || last.Rule != "count" || last.Seq != 3 {
		t.Fatalf("journal ends with firing %d (%s) of %d, want the failing firing 3", last.Seq, last.Rule, len(j.Firings))
	}
	var kinds []EffectKind
	for _, eff := range last.Effects {
		kinds = append(kinds, eff.Kind)
	}
	if want := []EffectKind{EffDo, EffHalt}; fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("failing firing's effects %v, want %v", kinds, want)
	}
}

func TestJournalReplayReproducesState(t *testing.T) {
	j, host, wantDump := recordToyRun(t)
	fresh := &toyHost{vals: map[string]int{}}
	wm := NewWM(testSchema)
	rep := &Replayer{WM: wm, Host: fresh}
	var seen []string
	rep.OnFiring = func(f *Firing) { seen = append(seen, f.Rule) }
	if err := rep.Run(j); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := wm.Dump(); got != wantDump {
		t.Fatalf("replayed WM differs:\n--- recorded ---\n%s--- replayed ---\n%s", wantDump, got)
	}
	if fmt.Sprint(fresh.vals) != fmt.Sprint(host.vals) {
		t.Fatalf("replayed host state %v, want %v", fresh.vals, host.vals)
	}
	if len(seen) != len(j.Firings) {
		t.Fatalf("OnFiring saw %d firings, want %d", len(seen), len(j.Firings))
	}
}

func TestJournalRefusesOpaqueReplay(t *testing.T) {
	wm := NewWM(testSchema)
	eng := NewEngine(wm)
	j := eng.RecordJournal(nil) // no encoder: pointers become opaque
	eng.AddRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("x")},
		Action:   func(tx *Tx, m *Match) { tx.Halt() },
	})
	wm.Make("x", Attrs{"p": &struct{ int }{}})
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if j.Opaque == 0 {
		t.Fatal("expected opaque value count > 0")
	}
	rep := &Replayer{WM: NewWM(testSchema)}
	if err := rep.Run(j); err == nil {
		t.Fatal("replay of opaque journal should fail")
	}
}

// A journal may come from outside the process: a make or modify naming
// vocabulary the replaying working memory does not declare or carrying a
// value it cannot hold, and a modify of an element the journal removed,
// are errors naming the class, attribute or element, not panics.
func TestReplayRefusesUndeclaredVocabulary(t *testing.T) {
	made := Effect{Kind: EffMake, Class: "a", Elem: 0, Attrs: []AttrValue{{Attr: "g", Val: Value{Scalar: 1}}}}
	cases := []struct {
		name string
		seed []Effect
		want string
	}{
		{"make of an undeclared class", []Effect{{Kind: EffMake, Class: "ghost", Elem: 0}},
			"make: class ghost is not declared"},
		{"make of an undeclared attribute", []Effect{{Kind: EffMake, Class: "a", Elem: 0,
			Attrs: []AttrValue{{Attr: "g", Val: Value{Scalar: 1}}, {Attr: "knd", Val: Value{Scalar: 2}}}}},
			"make: class a declares no attribute ^knd"},
		{"modify of an undeclared attribute", []Effect{made, {Kind: EffModify, Elem: 0,
			Attrs: []AttrValue{{Attr: "knd"}}}},
			"modify #0: class a declares no attribute ^knd"},
		{"make of a non-comparable value", []Effect{{Kind: EffMake, Class: "a", Elem: 0,
			Attrs: []AttrValue{{Attr: "g", Val: Value{Scalar: []int{1}}}}}},
			"make a ^g: value of non-comparable type []int"},
		{"modify to a non-comparable value", []Effect{made, {Kind: EffModify, Elem: 0,
			Attrs: []AttrValue{{Attr: "g", Val: Value{Scalar: []int{1}}}}}},
			"modify #0 ^g: value of non-comparable type []int"},
		{"modify of a removed element", []Effect{made, {Kind: EffRemove, Elem: 0}, {Kind: EffModify, Elem: 0,
			Attrs: []AttrValue{{Attr: "g", Val: Value{Scalar: 2}}}}},
			"modify of unknown or removed element #0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := &Replayer{WM: NewWM(testSchema)}
			err := rep.Run(&Journal{Seed: tc.seed})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("replay error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
