package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// renderDesign produces a complete textual rendering of a design — the
// Verilog netlist plus the control table — used as the byte-identity
// criterion for journal replay.
func renderDesign(t *testing.T, d *rtl.Design) string {
	t.Helper()
	var b strings.Builder
	if err := d.WriteVerilog(&b, "top"); err != nil {
		t.Fatalf("render verilog: %v", err)
	}
	ctl, err := d.Validate()
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := ctl.Write(&b); err != nil {
		t.Fatalf("render control table: %v", err)
	}
	return b.String()
}

// RenderDesign is renderDesign for the external test package.
var RenderDesign = renderDesign

func TestJournalOffByDefault(t *testing.T) {
	res := synthesize(t, gcdSrc)
	if res.Journal != nil || res.Provenance != nil {
		t.Fatal("journal/provenance populated without Options.Journal")
	}
}

func TestJournalReplayByteIdentical(t *testing.T) {
	res, err := Synthesize(trace(t, gcdSrc), Options{Journal: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if res.Journal == nil || res.Provenance == nil {
		t.Fatal("journal/provenance missing with Options.Journal set")
	}
	firings, effects := res.Journal.Counts()
	if firings != res.Stats.TotalFirings {
		t.Fatalf("journal firings = %d, stats say %d", firings, res.Stats.TotalFirings)
	}
	if effects < firings {
		t.Fatalf("effects = %d < firings = %d", effects, firings)
	}
	replayed, err := Replay(trace(t, gcdSrc), res.Journal, Options{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	want := renderDesign(t, res.Design)
	got := renderDesign(t, replayed)
	if got != want {
		t.Fatalf("replayed design differs:\n--- recorded ---\n%s\n--- replayed ---\n%s", want, got)
	}
}

func TestJournalMatchesUnjournaledRun(t *testing.T) {
	plain := synthesize(t, gcdSrc)
	journ, err := Synthesize(trace(t, gcdSrc), Options{Journal: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if got, want := renderDesign(t, journ.Design), renderDesign(t, plain.Design); got != want {
		t.Fatal("journaling changed the synthesized design")
	}
}

func TestProvenanceCoversEveryComponent(t *testing.T) {
	res, err := Synthesize(trace(t, gcdSrc), Options{Journal: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if un := res.Provenance.Unattributed(); len(un) > 0 {
		t.Fatalf("unattributed components: %v", un)
	}
	c := res.Design.Counts()
	total := c.Registers + c.Memories + c.Ports + c.Units + c.States + c.Consts + c.Muxes + c.Junctions + c.Links
	if len(res.Provenance.Components) != total {
		t.Fatalf("provenance has %d components, design has %d", len(res.Provenance.Components), total)
	}
}

func TestProvenanceExplainSelectsByLabel(t *testing.T) {
	res, err := Synthesize(trace(t, gcdSrc), Options{Journal: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	var b strings.Builder
	n := res.Provenance.Explain(&b, "reg X")
	if n == 0 {
		t.Fatal("no component matched selector \"reg X\"")
	}
	out := b.String()
	if !strings.Contains(out, "allocate-register-for-carrier") {
		t.Fatalf("explain output missing allocating rule:\n%s", out)
	}
	if !strings.Contains(out, "data-memory/") {
		t.Fatalf("explain output missing phase/seq column:\n%s", out)
	}
	var all strings.Builder
	if got := res.Provenance.Explain(&all, ""); got != len(res.Provenance.Components) {
		t.Fatalf("empty selector matched %d of %d components", got, len(res.Provenance.Components))
	}
}

func TestProvenanceDepthTable(t *testing.T) {
	res, err := Synthesize(trace(t, gcdSrc), Options{Journal: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	rows := res.Provenance.Depth()
	if len(rows) == 0 {
		t.Fatal("empty depth table")
	}
	kinds := map[string]DepthRow{}
	for _, r := range rows {
		kinds[r.Kind] = r
		if r.Components == 0 {
			t.Fatalf("kind %s listed with zero components", r.Kind)
		}
		if r.Mean <= 0 {
			t.Fatalf("kind %s has mean depth %v, want > 0", r.Kind, r.Mean)
		}
	}
	if _, ok := kinds["reg"]; !ok {
		t.Fatal("depth table missing registers")
	}
	if _, ok := kinds["state"]; !ok {
		t.Fatal("depth table missing states")
	}
}

func TestJournalWriteText(t *testing.T) {
	res, err := Synthesize(trace(t, gcdSrc), Options{Journal: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	var b strings.Builder
	res.Journal.WriteText(&b)
	out := b.String()
	for _, want := range []string{"effect journal for", "phase control", "do place-op(", "do bind-carrier-reg("} {
		if !strings.Contains(out, want) {
			t.Fatalf("journal text missing %q", want)
		}
	}
}

func TestReplayWithExtraRulesJournaled(t *testing.T) {
	// Extension rules that mutate through Tx are journaled like built-ins
	// and replay without the rules being present.
	res, err := Synthesize(trace(t, gcdSrc), Options{Journal: true, DisableCleanup: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	replayed, err := Replay(trace(t, gcdSrc), res.Journal, Options{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got, want := renderDesign(t, replayed), renderDesign(t, res.Design); got != want {
		t.Fatal("ablated-run replay differs")
	}
}

// Replay accepts journals from outside the process, so one hand-edited to
// make an element with an attribute its phase does not declare is refused
// with an error naming it, not a panic.
func TestReplayRefusesUndeclaredAttribute(t *testing.T) {
	res, err := Synthesize(trace(t, gcdSrc), Options{Journal: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	pj := res.Journal.Phases[0]
	mk := &pj.J.Seed[0]
	if mk.Kind != prod.EffMake {
		t.Fatalf("phase %s's first seed effect is a %s, want a make", pj.Phase, mk.Kind)
	}
	mk.Attrs = append(mk.Attrs, prod.AttrValue{Attr: "ghost", Val: prod.Value{Scalar: 1}})
	d, err := Replay(trace(t, gcdSrc), res.Journal, Options{})
	want := "core: replay phase " + pj.Phase + ": prod: replay seed: make: class " + mk.Class + " declares no attribute ^ghost"
	if d != nil || err == nil || err.Error() != want {
		t.Fatalf("Replay returned %v, %v; want no design and %q", d, err, want)
	}
}

// Replay refuses a hand-edited journal whose effect arguments no
// synthesis could have recorded, naming the effect, instead of panicking
// or growing a schedule without bound.
func TestReplayRefusesMalformedEffects(t *testing.T) {
	ops := map[int]*vt.Op{}
	var unary *vt.Op // the first operator without two operands
	for _, op := range trace(t, gcdSrc).AllOps() {
		ops[op.ID] = op
		if unary == nil && len(op.Args) != 2 {
			unary = op
		}
	}
	rows := []struct {
		name, effect string
		edit         func(args []prod.Value) []prod.Value
		want         func(op *vt.Op) string // the effect's error, given the operator it names
	}{
		{"orient-op of an operator without two operands", "orient-op",
			func([]prod.Value) []prod.Value {
				return []prod.Value{{Ref: &prod.Ref{Kind: "op", ID: unary.ID}}, {Scalar: true}}
			},
			func(op *vt.Op) string {
				return fmt.Sprintf("operator %d is a %d-operand %s, want a two-operand commutative operator", op.ID, len(op.Args), op.Kind)
			}},
		{"place-op before the first step", "place-op",
			func(args []prod.Value) []prod.Value { return []prod.Value{args[0], {Scalar: -1}} },
			func(op *vt.Op) string {
				return fmt.Sprintf("operator %d at step -1, want a step in [0, %d)", op.ID, len(op.Body.Ops))
			}},
		{"missing argument", "place-op",
			func(args []prod.Value) []prod.Value { return args[:1] },
			func(*vt.Op) string { return "missing argument 1" }},
		{"mistyped argument", "place-op",
			func(args []prod.Value) []prod.Value { return []prod.Value{args[0], {Scalar: "first"}} },
			func(*vt.Op) string { return "argument 1 is string, want int" }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			res, err := Synthesize(trace(t, gcdSrc), Options{Journal: true})
			if err != nil {
				t.Fatal(err)
			}
			phase, f, eff := firstEffect(res.Journal, row.effect)
			if eff == nil {
				t.Fatalf("gcd's journal has no %s effect", row.effect)
			}
			eff.Args = row.edit(eff.Args)
			want := fmt.Sprintf("core: replay phase %s: prod: replay firing %d (%s): effect %s: %s",
				phase, f.Seq, f.Rule, row.effect, row.want(ops[eff.Args[0].Ref.ID]))
			d, err := Replay(trace(t, gcdSrc), res.Journal, Options{})
			if d != nil || err == nil || err.Error() != want {
				t.Fatalf("Replay returned %v, %v; want no design and %q", d, err, want)
			}
		})
	}
}

// firstEffect finds the first do effect of the named effect in j, with
// its phase and firing.
func firstEffect(j *Journal, name string) (string, *prod.Firing, *prod.Effect) {
	for _, pj := range j.Phases {
		for _, f := range pj.J.Firings {
			for i := range f.Effects {
				if eff := &f.Effects[i]; eff.Kind == prod.EffDo && eff.Name == name {
					return pj.Phase, f, eff
				}
			}
		}
	}
	return "", nil, nil
}
