package prod

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// testSchema declares the vocabulary of every working memory in this
// package's tests.
var testSchema = &Schema{Classes: map[string][]string{
	"a":         {"g", "k", "done", "seen", "i"},
	"b":         {"g", "k", "done", "i"},
	"body":      {"body", "cursor"},
	"c":         {},
	"ctl":       {},
	"done":      {"task"},
	"edge":      {"from", "to"},
	"item":      {"g", "n", "done"},
	"job":       {"g", "kind", "shadow"},
	"lock":      {"g", "owner", "hard"},
	"n":         {"v"},
	"net":       {"w", "pins", "fanout"},
	"op":        {"kind", "width", "seq", "body", "class", "bound", "unit", "a", "b", "c"},
	"p":         {"n"},
	"q":         {"n"},
	"r":         {"n"},
	"s":         {"n"},
	"t":         {"n"},
	"u":         {"n"},
	"result":    {"ok"},
	"task":      {"g", "n", "name", "got"},
	"tok":       {"n", "i", "done", "seen"},
	"unit":      {"class"},
	"want-lock": {"g"},
	"x":         {"a", "b", "i", "k", "p", "tag", "note", "spin"},
	"y":         {},
	"zzz":       {},
}}

func TestWMMakeGetModifyRemove(t *testing.T) {
	wm := NewWM(testSchema)
	e := wm.Make("op", Attrs{"kind": "add", "width": 8})
	if e.Str("kind") != "add" || e.Int("width") != 8 {
		t.Fatalf("attrs: %s", e)
	}
	if !e.Has("kind") || e.Has("bound") {
		t.Error("Has misbehaves")
	}
	t0 := e.Time
	wm.Modify(e, Attrs{"width": 16, "kind": nil})
	if e.Int("width") != 16 || e.Has("kind") {
		t.Fatalf("after modify: %s", e)
	}
	if e.Time <= t0 {
		t.Error("modify must bump recency")
	}
	if wm.Size() != 1 {
		t.Errorf("size %d, want 1", wm.Size())
	}
	wm.Remove(e)
	if wm.Size() != 0 || e.Live() {
		t.Error("remove failed")
	}
	wm.Remove(e) // idempotent
	if wm.Peak() != 1 {
		t.Errorf("peak %d, want 1", wm.Peak())
	}
}

func TestWMNilAttrsSkipped(t *testing.T) {
	wm := NewWM(testSchema)
	e := wm.Make("x", Attrs{"a": nil, "b": 1})
	if e.Has("a") {
		t.Error("nil attribute should be absent")
	}
}

func TestWMModifyRemovedPanics(t *testing.T) {
	wm := NewWM(testSchema)
	e := wm.Make("x", nil)
	wm.Remove(e)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on modify-after-remove")
		}
	}()
	wm.Modify(e, Attrs{"a": 1})
}

func TestWMClassIndex(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("a", nil)
	b1 := wm.Make("b", nil)
	wm.Make("b", nil)
	if len(wm.Class("b")) != 2 || len(wm.Class("a")) != 1 || wm.Class("c") != nil {
		t.Fatal("class index broken")
	}
	if wm.First("b") != b1 {
		t.Error("First should return oldest element")
	}
	wm.Remove(b1)
	if len(wm.Class("b")) != 1 {
		t.Error("remove did not update index")
	}

	// Remove finds an element by binary search on ID within its class
	// list: interleave two classes, then remove the first, a middle and
	// the last element of one (and one of them twice), checking both
	// lists keep creation order each time.
	wm = NewWM(testSchema)
	var xs, ys []*Element
	for i := 0; i < 6; i++ {
		xs = append(xs, wm.Make("x", nil))
		ys = append(ys, wm.Make("y", nil))
	}
	want := func(step string, class string, es ...*Element) {
		t.Helper()
		got := wm.Class(class)
		if len(got) != len(es) {
			t.Fatalf("%s: class %s has %d elements, want %d", step, class, len(got), len(es))
		}
		for i := range es {
			if got[i] != es[i] {
				t.Fatalf("%s: class %s[%d] = #%d, want #%d", step, class, i, got[i].ID, es[i].ID)
			}
		}
	}
	wm.Remove(xs[0])
	want("remove first", "x", xs[1], xs[2], xs[3], xs[4], xs[5])
	wm.Remove(xs[3])
	want("remove middle", "x", xs[1], xs[2], xs[4], xs[5])
	wm.Remove(xs[5])
	want("remove last", "x", xs[1], xs[2], xs[4])
	wm.Remove(xs[3])
	want("remove twice", "x", xs[1], xs[2], xs[4])
	want("other class", "y", ys...)
	if wm.Size() != 9 {
		t.Errorf("Size = %d after four removals (one repeated) of twelve, want 9", wm.Size())
	}
}

// Working-memory updates allocate only what they store: a Modify that
// changes one value writes its slot in place, and a Make allocates the
// element and its value vector.
func TestWMUpdateAllocs(t *testing.T) {
	wm := NewWM(testSchema)
	el := wm.Make("op", Attrs{"kind": "add", "width": 8, "seq": 0})
	mods := [2]Attrs{{"seq": 1}, {"seq": 2}}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i ^= 1
		wm.Modify(el, mods[i])
	}); n != 0 {
		t.Errorf("Modify of one value allocates %.0f times, want 0", n)
	}
	attrs := Attrs{"kind": "add", "width": 8, "seq": 3}
	if n := testing.AllocsPerRun(100, func() { wm.Make("op", attrs) }); n != 2 {
		t.Errorf("Make allocates %.0f times, want 2 (the element and its vector)", n)
	}
}

// Every path that meets a class or attribute its schema does not declare
// panics, naming what it hit: the working memory's make, modify and read,
// and a rule's pattern at registration. So do a rule registered after the
// engine's first cycle and a declaration no layout can hold: a Modify
// reports its changed slots in one uint64, so a class has at most 64
// attributes.
func TestUndeclaredVocabularyPanics(t *testing.T) {
	nop := func(*Tx, *Match) {}
	wide := make([]string, maxClassAttrs+1)
	for i := range wide {
		wide[i] = fmt.Sprintf("a%02d", i)
	}
	cases := []struct {
		name string
		run  func()
		want []string // what the panic must name
	}{
		{"make of an undeclared class", func() {
			NewWM(testSchema).Make("ghost", Attrs{"g": 1})
		}, []string{"class ghost"}},
		{"make of an undeclared attribute", func() {
			// Of two undeclared names, the first in sorted order is named.
			NewWM(testSchema).Make("a", Attrs{"g": 1, "zz": 2, "yy": 3})
		}, []string{"class a", "^yy"}},
		{"modify of an undeclared attribute", func() {
			wm := NewWM(testSchema)
			wm.Modify(wm.Make("a", Attrs{"g": 1}), Attrs{"knd": nil})
		}, []string{"class a", "^knd"}},
		{"get of an undeclared attribute", func() {
			NewWM(testSchema).Make("op", Attrs{"kind": "add"}).Has("knd")
		}, []string{"class op", "^knd"}},
		{"pattern on an undeclared class", func() {
			NewEngine(NewWM(testSchema)).AddRule(&Rule{Name: "ghost-class",
				Patterns: []Pattern{P("operator").Eq("kind", "add")}, Action: nop})
		}, []string{"rule ghost-class", "pattern 0", "class operator"}},
		{"pattern testing an undeclared attribute", func() {
			NewEngine(NewWM(testSchema)).AddRule(&Rule{Name: "ghost-attr",
				Patterns: []Pattern{P("op").Eq("knd", "add")}, Action: nop})
		}, []string{"rule ghost-attr", "pattern 0", "^knd", "class op"}},
		{"join on an undeclared attribute", func() {
			NewEngine(NewWM(testSchema)).AddRule(&Rule{Name: "ghost-join",
				Patterns: []Pattern{P("a").Bind("g", "g"), N("b").Bind("gg", "g")}, Action: nop})
		}, []string{"rule ghost-join", "pattern 1", "^gg", "class b"}},
		{"rule after the first cycle", func() {
			eng := NewEngine(NewWM(testSchema))
			eng.AddRule(&Rule{Name: "early", Patterns: []Pattern{P("x")}, Action: nop})
			if err := eng.Run(); err != nil {
				panic(err.Error())
			}
			eng.AddRule(&Rule{Name: "late", Patterns: []Pattern{P("x")}, Action: nop})
		}, []string{"rule late", "first cycle"}},
		{"65 attributes", func() {
			NewWM(&Schema{Classes: map[string][]string{"wide": wide}})
		}, []string{"class wide", "65 attributes"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if msg == "" {
					t.Fatal("no panic")
				}
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Errorf("panic %q does not name %q", msg, w)
					}
				}
			}()
			tc.run()
		})
	}
}

func run(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Builder chains may branch off a shared prefix: each call copies the
// test list, so a built pattern is final and one branch never sees
// another's tests.
func TestPatternBranchesAreIndependent(t *testing.T) {
	base := P("op").Eq("kind", "add").Eq("width", 8).Absent("bound")
	bound := base.Bind("unit", "u")
	free := base.Absent("unit")
	if len(base.tests) != 3 {
		t.Fatalf("the prefix has %d tests after branching, want 3", len(base.tests))
	}
	if got := bound.tests[3]; got.kind != testBind || got.attr != "unit" || got.vari != "u" {
		t.Errorf("the Bind branch's last test is %+v, want Bind(unit, u)", got)
	}
	if got := free.tests[3]; got.kind != testAbsent || got.attr != "unit" {
		t.Errorf("the Absent branch's last test is %+v, want Absent(unit)", got)
	}
}

func TestEngineSimpleFire(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("n", Attrs{"v": 3})
	eng := NewEngine(wm)
	fired := 0
	eng.AddRule(&Rule{
		Name:     "decrement",
		Patterns: []Pattern{P("n").Bind("v", "v")},
		Action: func(e *Tx, m *Match) {
			fired++
			var v any // decrementing to zero unsets v, which ends the run
			if n := m.Int("v") - 1; n > 0 {
				v = n
			}
			e.Modify(m.El(0), Attrs{"v": v})
		},
	})
	run(t, eng)
	if fired != 3 {
		t.Errorf("fired %d, want 3", fired)
	}
	if eng.Firings() != 3 {
		t.Errorf("Firings() %d, want 3", eng.Firings())
	}
}

func TestRefractionPreventsRefire(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("x", Attrs{"a": 1})
	eng := NewEngine(wm)
	fired := 0
	eng.AddRule(&Rule{
		Name:     "once",
		Patterns: []Pattern{P("x").Eq("a", 1)},
		Action:   func(e *Tx, m *Match) { fired++ }, // no WM change
	})
	run(t, eng)
	if fired != 1 {
		t.Errorf("fired %d, want 1 (refraction)", fired)
	}
}

func TestModifyReenablesRule(t *testing.T) {
	wm := NewWM(testSchema)
	x := wm.Make("x", Attrs{"a": 1})
	eng := NewEngine(wm)
	fired := 0
	eng.AddRule(&Rule{
		Name:     "watch",
		Patterns: []Pattern{P("x").Eq("a", 1)},
		Action: func(e *Tx, m *Match) {
			fired++
			if fired == 1 {
				e.Modify(x, Attrs{"b": true}) // 'a' still 1: matches again
			}
		},
	})
	run(t, eng)
	if fired != 2 {
		t.Errorf("fired %d, want 2 (modify re-enables)", fired)
	}
}

func TestRecencyPreferred(t *testing.T) {
	cases := []struct {
		name string
		// retouch, when set, is the tag of the element the first firing
		// modifies on an attribute no pattern reads: its token survives,
		// but the new time tag must move it ahead of older instantiations.
		retouch string
		want    string
	}{
		{name: "newest fires first", want: "[new mid old]"},
		{name: "modify reorders without a token rebuild", retouch: "old", want: "[new old mid]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wm := NewWM(testSchema)
			byTag := map[string]*Element{}
			for _, tag := range []string{"old", "mid", "new"} {
				byTag[tag] = wm.Make("x", Attrs{"tag": tag})
			}
			eng := NewEngine(wm)
			var order []string
			eng.AddRule(&Rule{
				Name:     "log",
				Patterns: []Pattern{P("x").Bind("tag", "t")},
				Action: func(e *Tx, m *Match) {
					if len(order) == 0 && c.retouch != "" {
						e.Modify(byTag[c.retouch], Attrs{"note": true})
					}
					order = append(order, m.Str("t"))
				},
			})
			run(t, eng)
			if got := fmt.Sprint(order); got != c.want {
				t.Errorf("order %s, want %s (recency)", got, c.want)
			}
		})
	}
}

func TestSpecificityBreaksTies(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("x", Attrs{"a": 1, "b": 2})
	eng := NewEngine(wm)
	var winner string
	record := func(name string) func(*Tx, *Match) {
		return func(e *Tx, m *Match) {
			if winner == "" {
				winner = name
			}
			e.Halt()
		}
	}
	eng.AddRule(&Rule{
		Name:     "loose",
		Patterns: []Pattern{P("x").Eq("a", 1)},
		Action:   record("loose"),
	})
	eng.AddRule(&Rule{
		Name:     "tight",
		Patterns: []Pattern{P("x").Eq("a", 1).Eq("b", 2)},
		Action:   record("tight"),
	})
	run(t, eng)
	if winner != "tight" {
		t.Errorf("winner %q, want tight (specificity)", winner)
	}
}

func TestVariableUnification(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("edge", Attrs{"from": "a", "to": "b"})
	wm.Make("edge", Attrs{"from": "b", "to": "c"})
	wm.Make("edge", Attrs{"from": "c", "to": "a"})
	eng := NewEngine(wm)
	var chains []string
	eng.AddRule(&Rule{
		Name: "chain",
		Patterns: []Pattern{
			P("edge").Bind("from", "x").Bind("to", "y"),
			P("edge").Bind("from", "y").Bind("to", "z"),
		},
		Action: func(e *Tx, m *Match) {
			chains = append(chains, m.Str("x")+m.Str("y")+m.Str("z"))
		},
	})
	run(t, eng)
	if len(chains) != 3 {
		t.Fatalf("chains %v, want 3 two-step paths", chains)
	}
	want := map[string]bool{"abc": true, "bca": true, "cab": true}
	for _, c := range chains {
		if !want[c] {
			t.Errorf("unexpected chain %q", c)
		}
	}
}

func TestNegatedPattern(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("task", Attrs{"name": "t1"})
	wm.Make("done", Attrs{"task": "t1"})
	wm.Make("task", Attrs{"name": "t2"})
	eng := NewEngine(wm)
	var pending []string
	eng.AddRule(&Rule{
		Name: "pending",
		Patterns: []Pattern{
			P("task").Bind("name", "n"),
			N("done").Bind("task", "n"),
		},
		Action: func(e *Tx, m *Match) {
			pending = append(pending, m.Str("n"))
		},
	})
	run(t, eng)
	if len(pending) != 1 || pending[0] != "t2" {
		t.Errorf("pending %v, want [t2]", pending)
	}
}

func TestWhereJoin(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("n", Attrs{"v": 2})
	wm.Make("n", Attrs{"v": 5})
	eng := NewEngine(wm)
	var got []int
	eng.AddRule(&Rule{
		Name:     "big",
		Patterns: []Pattern{P("n").Bind("v", "v")},
		Where:    func(_ Host, m *Match) bool { return m.Int("v") > 3 },
		Action:   func(e *Tx, m *Match) { got = append(got, m.Int("v")) },
	})
	run(t, eng)
	if len(got) != 1 || got[0] != 5 {
		t.Errorf("got %v, want [5]", got)
	}
}

func TestHalt(t *testing.T) {
	wm := NewWM(testSchema)
	for i := 0; i < 10; i++ {
		wm.Make("x", Attrs{"i": i})
	}
	eng := NewEngine(wm)
	fired := 0
	eng.AddRule(&Rule{
		Name:     "halt-first",
		Patterns: []Pattern{P("x")},
		Action: func(e *Tx, m *Match) {
			fired++
			e.Halt()
		},
	})
	run(t, eng)
	if fired != 1 {
		t.Errorf("fired %d, want 1 (halted)", fired)
	}
}

func TestFiringLimit(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("x", nil)
	eng := NewEngine(wm)
	eng.MaxFirings = 10
	eng.AddRule(&Rule{
		Name:     "spin",
		Patterns: []Pattern{P("x")},
		Action: func(e *Tx, m *Match) {
			e.Modify(m.El(0), Attrs{"spin": m.El(0).Int("spin") + 1})
		},
	})
	if err := eng.Run(); err == nil {
		t.Fatal("expected firing-limit error")
	}
}

func TestRemoveDisablesMatch(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("x", nil)
	wm.Make("x", nil)
	eng := NewEngine(wm)
	fired := 0
	eng.AddRule(&Rule{
		Name:     "consume",
		Patterns: []Pattern{P("x")},
		Action: func(e *Tx, m *Match) {
			fired++
			for _, el := range append([]*Element(nil), wm.Class("x")...) {
				e.Remove(el)
			}
		},
	})
	run(t, eng)
	if fired != 1 {
		t.Errorf("fired %d, want 1 (all elements consumed)", fired)
	}
}

func TestAddRulePanics(t *testing.T) {
	eng := NewEngine(NewWM(testSchema))
	cases := []struct {
		name string
		rule *Rule
	}{
		{"no-name", &Rule{Patterns: []Pattern{P("x")}, Action: func(*Tx, *Match) {}}},
		{"no-action", &Rule{Name: "r", Patterns: []Pattern{P("x")}}},
		{"no-patterns", &Rule{Name: "r", Action: func(*Tx, *Match) {}}},
		{"neg-first", &Rule{Name: "r", Patterns: []Pattern{N("x")}, Action: func(*Tx, *Match) {}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			eng.AddRule(c.rule)
		})
	}
}

func TestUnboundVariablePanics(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("x", nil)
	eng := NewEngine(wm)
	eng.AddRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("x")},
		Action: func(e *Tx, m *Match) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for unbound variable")
				}
			}()
			m.Get("nope")
		},
	})
	run(t, eng)
}

func TestTraceWriter(t *testing.T) {
	wm := NewWM(testSchema)
	wm.Make("x", nil)
	eng := NewEngine(wm)
	var sb strings.Builder
	eng.TraceWriter = &sb
	eng.AddRule(&Rule{
		Name:     "traced-rule",
		Patterns: []Pattern{P("x")},
		Action:   func(e *Tx, m *Match) {},
	})
	run(t, eng)
	if !strings.Contains(sb.String(), "traced-rule") {
		t.Errorf("trace missing rule name: %q", sb.String())
	}
}

func TestElementStringDeterministic(t *testing.T) {
	wm := NewWM(testSchema)
	e := wm.Make("op", Attrs{"b": 2, "a": 1, "c": 3})
	want := "(op #0 ^a 1 ^b 2 ^c 3)"
	if got := e.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: a token-passing rule set fires exactly once per element no
// matter how many elements exist, and the engine terminates.
func TestEngineTerminationProperty(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%50) + 1
		wm := NewWM(testSchema)
		for i := 0; i < count; i++ {
			wm.Make("tok", Attrs{"i": i})
		}
		eng := NewEngine(wm)
		fired := 0
		eng.AddRule(&Rule{
			Name:     "consume",
			Patterns: []Pattern{P("tok").Absent("seen")},
			Action: func(e *Tx, m *Match) {
				fired++
				e.Modify(m.El(0), Attrs{"seen": true})
			},
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return fired == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: recency ordering means a chain of makes is consumed LIFO.
func TestEngineRecencyLIFOProperty(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%20) + 2
		wm := NewWM(testSchema)
		for i := 0; i < count; i++ {
			wm.Make("tok", Attrs{"i": i})
		}
		eng := NewEngine(wm)
		var order []int
		eng.AddRule(&Rule{
			Name:     "pop",
			Patterns: []Pattern{P("tok")},
			Action: func(e *Tx, m *Match) {
				order = append(order, m.El(0).Int("i"))
				e.Remove(m.El(0))
			},
		})
		if err := eng.Run(); err != nil {
			return false
		}
		for i, v := range order {
			if v != count-1-i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the exhaustive oracle's (class, attr, value) index, built over
// the working memory after arbitrary interleavings of Make, Modify, and
// Remove, agrees with a brute-force scan.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		wm := NewWM(testSchema)
		var live []*Element
		for _, o := range ops {
			switch o % 4 {
			case 0, 1: // make
				live = append(live, wm.Make("x", Attrs{"k": int(o % 7)}))
			case 2: // modify
				if len(live) > 0 {
					e := live[int(o>>4)%len(live)]
					if e.Live() {
						wm.Modify(e, Attrs{"k": int(o>>8) % 7})
					}
				}
			case 3: // remove
				if len(live) > 0 {
					wm.Remove(live[int(o>>4)%len(live)])
				}
			}
		}
		o := newOracle(wm)
		for k := 0; k < 7; k++ {
			want := 0
			for _, e := range wm.Class("x") {
				if e.Int("k") == k {
					want++
				}
			}
			got := o.lookup("x", "k", k)
			if len(got) != want {
				return false
			}
			for _, e := range got {
				if !e.Live() || e.Int("k") != k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The matcher's candidate narrowing via a bound variable must not change
// results: a join over an indexed attribute finds the same matches as a
// full scan would.
func TestIndexedJoinEquivalence(t *testing.T) {
	wm := NewWM(testSchema)
	for i := 0; i < 20; i++ {
		wm.Make("a", Attrs{"g": i % 3, "i": i})
		wm.Make("b", Attrs{"g": i % 3, "i": i})
	}
	eng := NewEngine(wm)
	pairs := 0
	eng.AddRule(&Rule{
		Name: "join",
		Patterns: []Pattern{
			P("a").Bind("g", "g").Absent("seen"),
			P("b").Bind("g", "g"),
		},
		Action: func(e *Tx, m *Match) {
			pairs++
			// Retire the 'a' element after counting its partners once.
			if pairs%1000 == 0 {
				return
			}
			e.Modify(m.El(0), Attrs{"seen": true})
		},
	})
	run(t, eng)
	// Each of the 20 'a' elements fires once (then is marked seen); each
	// has ~7 partners but refraction lets only one instantiation fire per
	// recency change, so exactly 20 firings occur.
	if pairs != 20 {
		t.Errorf("joined %d times, want 20", pairs)
	}
}

func TestInterruptStopsRunawayRuleSet(t *testing.T) {
	// A rule set that never reaches quiescence: every firing makes a new
	// element that re-enables the rule. Without an interrupt this spins
	// until MaxFirings; with one, Run returns the interrupt's error
	// between cycles.
	wm := NewWM(testSchema)
	wm.Make("tok", Attrs{"n": 0})
	eng := NewEngine(wm)
	eng.AddRule(&Rule{
		Name:     "spin",
		Patterns: []Pattern{P("tok").Absent("seen")},
		Action: func(e *Tx, m *Match) {
			e.Modify(m.El(0), Attrs{"seen": true})
			e.Make("tok", Attrs{"n": m.El(0).Int("n") + 1})
		},
	})
	polls := 0
	wantErr := errSentinel("interrupted")
	eng.Interrupt = func() error {
		polls++
		if polls > 10 {
			return wantErr
		}
		return nil
	}
	err := eng.Run()
	if err != wantErr {
		t.Fatalf("Run: %v, want %v", err, wantErr)
	}
	// The interrupt is polled once per cycle, so firings are bounded by
	// the poll budget rather than MaxFirings.
	if eng.Firings() > 11 {
		t.Errorf("firings %d, want <= 11 (one per polled cycle)", eng.Firings())
	}
}

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
