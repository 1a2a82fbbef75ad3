package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/isps"
	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

func trace(t *testing.T, src string) *vt.Program {
	t.Helper()
	prog, err := isps.Parse("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tr, err := vt.Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return tr
}

func wrap(decls, body string) string {
	return fmt.Sprintf("processor T {\n%s\nmain m {\n%s\n}\n}", decls, body)
}

func synthesize(t *testing.T, src string) *Result {
	t.Helper()
	res, err := Synthesize(trace(t, src), Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if _, err := res.Design.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return res
}

const gcdSrc = `
processor GCD {
    reg X<15:0>
    reg Y<15:0>
    port in  XIN<15:0>
    port in  YIN<15:0>
    port out R<15:0>
    main run {
        X := XIN
        Y := YIN
        while X neq Y {
            if X gtr Y { X := X - Y } else { Y := Y - X }
        }
        R := X
    }
}`

func TestSynthesizeSimpleTransfer(t *testing.T) {
	res := synthesize(t, wrap("reg A<7:0> reg B<7:0>", "A := B + 1"))
	c := res.Design.Counts()
	if c.Registers != 2 {
		t.Errorf("registers %d, want 2", c.Registers)
	}
	if c.Units != 1 {
		t.Errorf("units %d, want 1", c.Units)
	}
	if c.States != 1 {
		t.Errorf("states %d, want 1 (combinational chain)", c.States)
	}
}

func TestSynthesizeGCD(t *testing.T) {
	res := synthesize(t, gcdSrc)
	c := res.Design.Counts()
	// gtr, neq, and the two subs: after cleanup the comparator folds into
	// the arithmetic ALU, so at most 2 units (compare classes may also
	// fold together).
	if c.Units > 2 {
		t.Errorf("units %d after cleanup, want <= 2", c.Units)
	}
	if res.Stats.TotalFirings == 0 {
		t.Error("no rules fired")
	}
	if len(res.Stats.Phases) != 7 {
		t.Errorf("phases %d, want 7", len(res.Stats.Phases))
	}
}

func TestCleanupFoldsAluLikeDecode(t *testing.T) {
	// Five mutually exclusive operations: the classic single-ALU fold.
	res := synthesize(t, wrap("reg A<7:0> reg B<7:0> reg OP<2:0>", `
        decode OP {
            0: A := A + B
            1: A := A - B
            2: A := A and B
            3: A := A or B
            4: A := A xor B
            otherwise: nop
        }`))
	c := res.Design.Counts()
	if c.Units != 1 {
		t.Fatalf("units %d, want 1 single ALU", c.Units)
	}
	u := res.Design.Units[0]
	if len(u.Fns) != 5 {
		t.Errorf("ALU functions %d, want 5", len(u.Fns))
	}
}

func TestCleanupMergesExclusiveTemporaries(t *testing.T) {
	// Each decode arm computes a temporary that crosses a step (the
	// write-read-write chain forces parking); the arms are mutually
	// exclusive so their temporaries share one register after cleanup.
	src := wrap("reg A<7:0> reg B<7:0> reg OP<1:0>", `
        decode OP {
            0: { A := A + B  B := A + 3 }
            1: { A := A - B  B := A - 3 }
            otherwise: nop
        }`)
	with, err := Synthesize(trace(t, src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Synthesize(trace(t, src), Options{DisableCleanup: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Design.Counts().Registers > without.Design.Counts().Registers {
		t.Errorf("cleanup increased registers: %d > %d",
			with.Design.Counts().Registers, without.Design.Counts().Registers)
	}
	if with.Design.Counts().Units >= without.Design.Counts().Units {
		t.Errorf("cleanup did not fold units: %d >= %d",
			with.Design.Counts().Units, without.Design.Counts().Units)
	}
}

func TestDisableCleanupStopsEarly(t *testing.T) {
	res, err := Synthesize(trace(t, gcdSrc), Options{DisableCleanup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Phases) != 6 {
		t.Errorf("phases %d, want 6 (trace..datapath)", len(res.Stats.Phases))
	}
}

func TestDisableTraceRulesSkipsPhaseZero(t *testing.T) {
	res, err := Synthesize(trace(t, gcdSrc), Options{DisableTraceRules: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phases[0].Name != "data-memory" {
		t.Errorf("first phase %q, want data-memory", res.Stats.Phases[0].Name)
	}
}

// TestJournaledSynthesisNeedsJournaledRefinement: a journal must replay
// phase 0, so SynthesizeRefined refuses to journal a refinement Refine
// made without one, and a refinement made with one journals all seven
// phases, phase 0 first, as Synthesize does.
func TestJournaledSynthesisNeedsJournaledRefinement(t *testing.T) {
	ctx := context.Background()
	ref, err := Refine(ctx, trace(t, gcdSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SynthesizeRefined(ctx, ref, Options{Journal: true}); err == nil {
		t.Error("a journaled synthesis of an unjournaled refinement succeeded")
	}
	ref, err = Refine(ctx, trace(t, gcdSrc), Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SynthesizeRefined(ctx, ref, Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Synthesize(trace(t, gcdSrc), Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	var got, wantJ strings.Builder
	res.Journal.WriteText(&got)
	want.Journal.WriteText(&wantJ)
	if got.String() != wantJ.String() {
		t.Error("Refine then SynthesizeRefined journaled differently from Synthesize")
	}
	if len(res.Journal.Phases) != len(knowledgeBase) || res.Journal.Phases[0].Phase != "trace" {
		t.Errorf("journal has %d phases starting %q, want %d starting with trace",
			len(res.Journal.Phases), res.Journal.Phases[0].Phase, len(knowledgeBase))
	}
}

func TestTraceRefinementReducesComparators(t *testing.T) {
	// CNT neq 0 becomes a TEST; P<0:0> eql 0 becomes a NOT. Without the
	// trace rules both need comparators.
	src := wrap("reg CNT<7:0> reg P2<1:0> reg A<7:0>", `
        while CNT neq 0 { CNT := CNT - 1 }
        if P2<0:0> eql 0 { A := 1 }`)
	refined, err := Synthesize(trace(t, src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Synthesize(trace(t, src), Options{DisableTraceRules: true})
	if err != nil {
		t.Fatal(err)
	}
	countCmp := func(d *rtl.Design) int {
		n := 0
		for _, u := range d.Units {
			for _, k := range []vt.OpKind{vt.OpNeq, vt.OpEql} {
				if u.Has(k) {
					n++
					break
				}
			}
		}
		return n
	}
	if countCmp(refined.Design) >= countCmp(raw.Design) {
		t.Errorf("refined comparator units %d, raw %d: trace rules should remove comparators",
			countCmp(refined.Design), countCmp(raw.Design))
	}
}

func TestDAANeverWorseThanBaselines(t *testing.T) {
	srcs := map[string]string{
		"gcd": gcdSrc,
		"decode": wrap("reg A<7:0> reg B<7:0> reg OP<2:0>", `
            decode OP {
                0: A := A + B
                1: A := A - B
                2: A := A and B
                otherwise: nop
            }`),
		"memory": wrap("mem M[0:15]<7:0> reg A<7:0> reg P<3:0>",
			"A := M[P]\nM[P] := A + 1\nP := P + 1"),
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			tr := trace(t, src)
			daa, err := Synthesize(tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			naive, err := alloc.Naive(tr, alloc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			le, err := alloc.LeftEdge(tr, alloc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []*rtl.Design{daa.Design, naive, le} {
				if _, err := d.Validate(); err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
			}
			dc, nc, lc := daa.Design.Counts(), naive.Counts(), le.Counts()
			if dc.Units > lc.Units || lc.Units > nc.Units {
				t.Errorf("unit ordering violated: daa=%d leftedge=%d naive=%d", dc.Units, lc.Units, nc.Units)
			}
			if dc.Registers > lc.Registers || lc.Registers > nc.Registers {
				t.Errorf("register ordering violated: daa=%d leftedge=%d naive=%d", dc.Registers, lc.Registers, nc.Registers)
			}
		})
	}
}

func TestPhaseEvolutionMonotoneCleanup(t *testing.T) {
	res := synthesize(t, gcdSrc)
	var datapath, cleanup rtl.Counts
	for _, ph := range res.Stats.Phases {
		switch ph.Name {
		case "datapath":
			datapath = ph.Counts
		case "cleanup":
			cleanup = ph.Counts
		}
	}
	if cleanup.Units > datapath.Units {
		t.Errorf("cleanup grew units: %d -> %d", datapath.Units, cleanup.Units)
	}
	if cleanup.Registers > datapath.Registers {
		t.Errorf("cleanup grew registers: %d -> %d", datapath.Registers, cleanup.Registers)
	}
}

func TestKnowledgeBaseInventory(t *testing.T) {
	kb := KnowledgeBase()
	if len(kb) != 7 {
		t.Fatalf("phases %d, want 7", len(kb))
	}
	total := 0
	for _, ph := range kb {
		if len(ph.Rules) == 0 {
			t.Errorf("phase %s has no rules", ph.Name)
		}
		total += len(ph.Rules)
		for _, r := range ph.Rules {
			if r.Name == "" || r.Doc == "" || r.Category != ph.Name {
				t.Errorf("rule %+v lacks name/doc or is not filed under its phase", r.Name)
			}
		}
	}
	if total < 30 {
		t.Errorf("knowledge base has %d rules, implausibly few", total)
	}
}

func TestSynthesisDeterministic(t *testing.T) {
	r1 := synthesize(t, gcdSrc)
	r2 := synthesize(t, gcdSrc)
	c1, c2 := r1.Design.Counts(), r2.Design.Counts()
	if c1 != c2 {
		t.Errorf("non-deterministic synthesis: %v vs %v", c1, c2)
	}
	if r1.Stats.TotalFirings != r2.Stats.TotalFirings {
		t.Errorf("non-deterministic firings: %d vs %d", r1.Stats.TotalFirings, r2.Stats.TotalFirings)
	}
}

func TestTraceWriterReceivesFirings(t *testing.T) {
	var sb strings.Builder
	_, err := Synthesize(trace(t, wrap("reg A<7:0>", "A := A + 1")), Options{Trace: &sb})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"allocate-register-for-carrier", "place-arithmetic", "allocate-arithmetic-unit"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestExtraRulesRun(t *testing.T) {
	fired := false
	extra := &prod.Rule{
		Name:     "custom-audit-rule",
		Category: "cleanup",
		Doc:      "test extension",
		Patterns: []prod.Pattern{prod.P("unit")},
		Action: func(e *prod.Tx, m *prod.Match) {
			fired = true
		},
	}
	_, err := Synthesize(trace(t, wrap("reg A<7:0>", "A := A + 1")), Options{ExtraRules: []*prod.Rule{extra}})
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("extra cleanup rule never fired")
	}
}

// A failing host effect stops synthesis: the engine keeps the effect's
// error and halts after the firing, and SynthesizeContext returns no
// design. The extra rule must not join the shared knowledge base.
func TestExtraRuleEffectErrorFailsSynthesis(t *testing.T) {
	cleanup := KnowledgeBase()[len(KnowledgeBase())-1]
	before := len(cleanup.Rules)
	bad := &prod.Rule{
		Name:     "call-missing-effect",
		Doc:      "test extension whose effect is not registered",
		Patterns: []prod.Pattern{prod.P("unit")},
		Action: func(tx *prod.Tx, m *prod.Match) {
			if _, err := tx.Do("no-such-effect"); err != nil {
				return
			}
			t.Error("Do of an unknown effect succeeded")
		},
	}
	res, err := SynthesizeContext(context.Background(), trace(t, gcdSrc), Options{ExtraRules: []*prod.Rule{bad}})
	if res != nil {
		t.Error("a failed synthesis returned a result")
	}
	const want = `core: phase cleanup: prod: rule call-missing-effect: effect no-such-effect: core: unknown effect`
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
	if after := len(KnowledgeBase()[len(KnowledgeBase())-1].Rules); after != before {
		t.Errorf("cleanup phase has %d rules after the run, want %d", after, before)
	}
}

// Concurrent syntheses share the one knowledge base, extra rules or not,
// and each builds the design a lone synthesis builds (go test -race checks
// that nothing in the table is written).
func TestConcurrentSynthesesShareKnowledgeBase(t *testing.T) {
	want := renderDesign(t, synthesize(t, gcdSrc).Design)
	extra := &prod.Rule{
		Name:     "concurrent-audit",
		Doc:      "inert test extension",
		Patterns: []prod.Pattern{prod.P("hreg")},
		Action:   func(*prod.Tx, *prod.Match) {},
	}
	traces := make([]*vt.Program, 6)
	for i := range traces {
		traces[i] = trace(t, gcdSrc)
	}
	designs := make([]*rtl.Design, len(traces))
	errs := make([]error, len(traces))
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := Options{Journal: i%3 == 0}
			if i%2 == 1 {
				opt.ExtraRules = []*prod.Rule{extra}
			}
			res, err := Synthesize(traces[i], opt)
			if err == nil {
				designs[i] = res.Design
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("synthesis %d: %v", i, err)
		}
		if got := renderDesign(t, designs[i]); got != want {
			t.Errorf("synthesis %d built a different design", i)
		}
	}
}

func TestCommutativityReducesMuxes(t *testing.T) {
	// B+A after A+B: with orientation the second add reuses both operand
	// links; without commutativity it would need two muxes.
	src := wrap("reg A<7:0> reg B<7:0> reg C<7:0> reg D<7:0>",
		"C := A + B\nD := B + A")
	res := synthesize(t, src)
	if got := len(res.Design.Muxes); got != 0 {
		t.Errorf("muxes %d, want 0 (commutativity rule reuses links)", got)
	}
}

func TestSynthesizeAllControlForms(t *testing.T) {
	res := synthesize(t, `
processor P {
    reg A<7:0>
    reg Z
    mem M[0:7]<7:0>
    port in X<7:0>
    port out Y<7:0>
    proc sub { A := A - 1 }
    main m {
        A := X
        if Z { A := A + 1 } else { A := A - 1 }
        decode A<1:0> { 0: Z := 1 1: Z := 0 otherwise: nop }
        while A neq 0 { call sub leave }
        repeat 2 { M[A<2:0>] := A }
        Y := A
    }
}`)
	if res.Design.Counts().States < 5 {
		t.Errorf("states %d, implausibly few", res.Design.Counts().States)
	}
}

func TestStatsPlausible(t *testing.T) {
	res := synthesize(t, gcdSrc)
	if res.Stats.FiringsPerSecond() <= 0 {
		t.Error("firing rate not positive")
	}
	opCount := 0
	for _, ph := range res.Stats.Phases {
		if ph.WMPeak < 0 || ph.Firings < 0 {
			t.Errorf("phase %s has negative stats", ph.Name)
		}
		opCount += ph.Firings
	}
	if opCount != res.Stats.TotalFirings {
		t.Error("phase firings do not sum to total")
	}
}
