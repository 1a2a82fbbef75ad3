package bind

import (
	"fmt"
	"testing"

	"repro/internal/isps"
	"repro/internal/rtl"
	"repro/internal/sched"
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

func TestCarriersBindsOnlyUsed(t *testing.T) {
	tr := trace(t, wrap("reg A<7:0> reg UNUSED<7:0> mem M[0:3]<7:0> port in X<7:0>",
		"A := X\nM[0] := A"))
	d := rtl.NewDesign("t", tr)
	Carriers(d)
	if len(d.Registers) != 1 {
		t.Errorf("registers %d, want 1 (UNUSED is not allocated)", len(d.Registers))
	}
	if len(d.Memories) != 1 || len(d.Ports) != 1 {
		t.Errorf("memories/ports: %d/%d", len(d.Memories), len(d.Ports))
	}
}

func TestApplyScheduleBindsEveryOp(t *testing.T) {
	tr := trace(t, wrap("reg A<7:0> reg Z", "A := A + 1\nif Z { A := 0 }"))
	d := rtl.NewDesign("t", tr)
	Carriers(d)
	ApplySchedule(d, mustProgram(t, tr))
	for _, op := range tr.AllOps() {
		if d.OpState[op] == nil {
			t.Errorf("op %s unbound", op)
		}
	}
	if len(d.States) == 0 {
		t.Fatal("no states")
	}
}

func TestCrossingValuesAndLifetime(t *testing.T) {
	// M read, then written, then the old read reused: the memread result
	// crosses steps.
	tr := trace(t, wrap("mem M[0:3]<7:0> reg A<7:0> reg B<7:0>",
		"A := M[0]\nM[1] := A + 1\nB := M[2]"))
	d := rtl.NewDesign("t", tr)
	Carriers(d)
	ApplySchedule(d, mustProgram(t, tr))
	vals := CrossingValues(d)
	for _, v := range vals {
		lo, hi := Lifetime(d, v)
		if hi <= lo {
			t.Errorf("crossing value %s has empty lifetime [%d,%d]", v, lo, hi)
		}
	}
	// Determinism: sorted by ID.
	for i := 1; i < len(vals); i++ {
		if vals[i-1].ID >= vals[i].ID {
			t.Error("crossing values not sorted")
		}
	}
}

func newPair(t *testing.T) (*rtl.Design, *rtl.Register, *rtl.Register, *rtl.Register) {
	t.Helper()
	d := rtl.NewDesign("t", nil)
	a := d.AddRegister("A", 8)
	b := d.AddRegister("B", 8)
	c := d.AddRegister("C", 8)
	return d, a, b, c
}

func out(r *rtl.Register) rtl.Endpoint { return rtl.Endpoint{Kind: rtl.EPRegOut, Comp: r} }
func in(r *rtl.Register) rtl.Endpoint  { return rtl.Endpoint{Kind: rtl.EPRegIn, Comp: r} }

func TestRouteCreatesLink(t *testing.T) {
	d, a, _, c := newPair(t)
	Route(d, out(a), in(c), 8)
	if len(d.Links) != 1 || len(d.Muxes) != 0 {
		t.Fatalf("links=%d muxes=%d, want 1/0", len(d.Links), len(d.Muxes))
	}
	// Idempotent.
	Route(d, out(a), in(c), 8)
	if len(d.Links) != 1 {
		t.Fatalf("second route duplicated the link")
	}
}

func TestRouteWidensExistingPath(t *testing.T) {
	d, a, _, c := newPair(t)
	Route(d, out(a), in(c), 4)
	Route(d, out(a), in(c), 8)
	if len(d.Links) != 1 || d.Links[0].Width != 8 {
		t.Fatalf("links: %v", d.Links)
	}
}

func TestRouteInsertsMuxOnSecondSource(t *testing.T) {
	d, a, b, c := newPair(t)
	Route(d, out(a), in(c), 8)
	Route(d, out(b), in(c), 8)
	if len(d.Muxes) != 1 || d.Muxes[0].Inputs != 2 {
		t.Fatalf("muxes: %v", d.Muxes)
	}
	if _, err := d.Validate(); err != nil {
		t.Fatalf("after mux insertion: %v", err)
	}
	if !d.Feeds(out(a), in(c)) || !d.Feeds(out(b), in(c)) {
		t.Error("sources lost after mux insertion")
	}
}

func TestRouteGrowsExistingMux(t *testing.T) {
	d, a, b, c := newPair(t)
	x := d.AddRegister("X", 8)
	Route(d, out(a), in(c), 8)
	Route(d, out(b), in(c), 8)
	Route(d, out(x), in(c), 8)
	if len(d.Muxes) != 1 || d.Muxes[0].Inputs != 3 {
		t.Fatalf("muxes: %v", d.Muxes)
	}
	if _, err := d.Validate(); err != nil {
		t.Fatalf("after mux growth: %v", err)
	}
	// Re-routing an existing source must not grow the mux again.
	Route(d, out(a), in(c), 8)
	if d.Muxes[0].Inputs != 3 {
		t.Error("re-route grew the mux")
	}
}

// TestRouteIgnoresJunctionRoutes: a route through a junction carries a
// concatenation, not the source alone, so a sink that the source reaches
// only through a junction still gets wiring of its own.
func TestRouteIgnoresJunctionRoutes(t *testing.T) {
	d, a, b, c := newPair(t)
	j := d.AddJunction("j", 16, 2)
	d.AddLink(out(a), rtl.Endpoint{Kind: rtl.EPJunctionIn, Comp: j, Index: 0}, 8)
	d.AddLink(out(b), rtl.Endpoint{Kind: rtl.EPJunctionIn, Comp: j, Index: 1}, 8)
	d.AddLink(rtl.Endpoint{Kind: rtl.EPJunctionOut, Comp: j}, in(c), 8)
	if !d.Feeds(out(a), in(c)) || d.FindRoute(out(a), in(c), false) != nil {
		t.Fatal("A should feed C only through the junction")
	}
	Route(d, out(a), in(c), 8)
	if len(d.Muxes) != 1 || d.Muxes[0].Inputs != 2 {
		t.Fatalf("muxes: %v, want one two-way mux in front of C", d.Muxes)
	}
	if d.FindRoute(out(a), in(c), false) == nil {
		t.Error("A has no mux-only route to C after Route")
	}
	if _, err := d.Validate(); err != nil {
		t.Fatalf("after routing: %v", err)
	}
}

func TestWireProducesValidDesign(t *testing.T) {
	tr := trace(t, wrap("reg A<7:0> reg B<7:0> reg OP<1:0>", `
        decode OP {
            0: A := A + B
            1: A := A - B
            otherwise: nop
        }`))
	d := rtl.NewDesign("t", tr)
	Carriers(d)
	ApplySchedule(d, mustProgram(t, tr))
	for _, op := range tr.AllOps() {
		if op.Kind.IsCompute() {
			d.OpUnit[op] = d.AddUnit(fmt.Sprintf("u%d", op.ID), 8, op.Kind)
		}
	}
	for i, v := range CrossingValues(d) {
		d.ValueReg[v] = d.AddRegister(fmt.Sprintf("t%d", i), v.Width)
	}
	if err := Wire(d); err != nil {
		t.Fatalf("Wire: %v", err)
	}
	if _, err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(d.Links) == 0 {
		t.Fatal("no links wired")
	}
}

func TestWireFailsOnUnboundUnit(t *testing.T) {
	tr := trace(t, wrap("reg A<7:0>", "A := A + 1"))
	d := rtl.NewDesign("t", tr)
	Carriers(d)
	ApplySchedule(d, mustProgram(t, tr))
	// No unit binding: Wire must fail loudly.
	if err := Wire(d); err == nil {
		t.Fatal("expected error for unbound compute op")
	}
}

// mustProgram list-schedules the whole trace, failing the test on error.
func mustProgram(t *testing.T, tr *vt.Program) map[*vt.Body]*sched.Schedule {
	t.Helper()
	m, err := sched.Program(tr, sched.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}
