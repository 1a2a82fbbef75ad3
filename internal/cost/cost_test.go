package cost

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rtl"
	"repro/internal/vt"
)

func TestEmptyDesignCostsNothing(t *testing.T) {
	d := rtl.NewDesign("t", nil)
	b := Default().Design(d)
	if b.Datapath != 0 || b.Memory != 0 {
		t.Fatalf("empty design costs %v", b)
	}
}

func TestRegisterCost(t *testing.T) {
	d := rtl.NewDesign("t", nil)
	d.AddRegister("A", 8)
	b := Default().Design(d)
	if b.Registers != 64 { // 8 bits x 8 gates
		t.Errorf("register cost %.1f, want 64", b.Registers)
	}
}

func TestUnitCostSharesDatapath(t *testing.T) {
	m := Default()
	single := rtl.NewDesign("t", nil)
	single.AddUnit("add", 8, vt.OpAdd)
	alu := rtl.NewDesign("t", nil)
	alu.AddUnit("alu", 8, vt.OpAdd, vt.OpSub, vt.OpAnd)
	adder := m.Design(single).Units
	aluCost := m.Design(alu).Units
	// A 3-function ALU costs its most expensive function (sub, 14/bit)
	// plus select logic, far less than the sum of three units.
	want := (14 + 2*2) * 8.0
	if aluCost != want {
		t.Errorf("ALU cost %.1f, want %.1f", aluCost, want)
	}
	if aluCost >= 3*adder {
		t.Errorf("ALU (%.1f) should be much cheaper than three units (%.1f)", aluCost, 3*adder)
	}
}

func TestUnknownFnDefaultWeight(t *testing.T) {
	d := rtl.NewDesign("t", nil)
	d.AddUnit("u", 4, vt.OpConcat) // not in the table
	b := Default().Design(d)
	if b.Units != 16 { // 4 gates/bit default x 4 bits
		t.Errorf("unknown-fn cost %.1f, want 16", b.Units)
	}
}

func TestMuxAndLinkCosts(t *testing.T) {
	d := rtl.NewDesign("t", nil)
	a := d.AddRegister("A", 8)
	c := d.AddRegister("C", 8)
	mx := d.AddMux("m", 8, 3)
	d.AddLink(rtl.Endpoint{Kind: rtl.EPRegOut, Comp: a}, rtl.Endpoint{Kind: rtl.EPMuxIn, Comp: mx}, 8)
	d.AddLink(rtl.Endpoint{Kind: rtl.EPMuxOut, Comp: mx}, rtl.Endpoint{Kind: rtl.EPRegIn, Comp: c}, 8)
	b := Default().Design(d)
	if b.Muxes != 36 { // 3 ways x 8 bits x 1.5
		t.Errorf("mux cost %.1f, want 36", b.Muxes)
	}
	if b.Links != 4.8 { // 16 bits x 0.3
		t.Errorf("link cost %.1f, want 4.8", b.Links)
	}
}

// Fold pricing asks what a unit's operand multiplexer would cost for a
// source set: a single source is a wire.
func TestMuxOfOneWayIsAWire(t *testing.T) {
	m := Default()
	for ways, want := range map[int]float64{0: 0, 1: 0, 2: 24, 3: 36} {
		if got := m.Mux(ways, 8); got != want {
			t.Errorf("Mux(%d, 8) = %.1f, want %.1f", ways, got, want)
		}
	}
}

func TestMemorySeparateFromDatapath(t *testing.T) {
	d := rtl.NewDesign("t", nil)
	d.AddMemory("M", 8, 1024)
	b := Default().Design(d)
	if b.Memory == 0 {
		t.Error("memory not costed")
	}
	if b.Datapath != 0 {
		t.Errorf("memory leaked into datapath: %.1f", b.Datapath)
	}
}

func TestControlCost(t *testing.T) {
	d := rtl.NewDesign("t", nil)
	d.AddState("main", 0)
	d.AddState("main", 1)
	b := Default().Design(d)
	if b.Control != 24 {
		t.Errorf("control cost %.1f, want 24", b.Control)
	}
}

func TestRatio(t *testing.T) {
	m := Default()
	small := rtl.NewDesign("t", nil)
	small.AddRegister("A", 8)
	big := rtl.NewDesign("t", nil)
	big.AddRegister("A", 8)
	big.AddRegister("B", 8)
	if r := m.Ratio(big, small); r != 2 {
		t.Errorf("ratio %.2f, want 2", r)
	}
	empty := rtl.NewDesign("t", nil)
	if r := m.Ratio(small, empty); r != 0 {
		t.Errorf("ratio vs empty %.2f, want 0", r)
	}
}

func TestBreakdownString(t *testing.T) {
	d := rtl.NewDesign("t", nil)
	d.AddRegister("A", 8)
	s := Default().Design(d).String()
	if !strings.Contains(s, "datapath=") || !strings.Contains(s, "regs=64") {
		t.Errorf("breakdown string %q", s)
	}
}

// Property: datapath cost is monotone in added registers and always equals
// the sum of its parts.
func TestCostMonotoneProperty(t *testing.T) {
	m := Default()
	f := func(widths []uint8) bool {
		d := rtl.NewDesign("t", nil)
		prev := 0.0
		for i, w8 := range widths {
			if i > 20 {
				break
			}
			w := int(w8%16) + 1
			d.AddRegister("r", w)
			b := m.Design(d)
			sum := b.Registers + b.Units + b.Muxes + b.Links + b.Consts + b.Ports + b.Control
			if b.Datapath != sum {
				return false
			}
			if b.Datapath <= prev {
				return false
			}
			prev = b.Datapath
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
