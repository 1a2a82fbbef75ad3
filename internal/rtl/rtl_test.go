package rtl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isps"
	"repro/internal/vt"
)

// newStructural returns a design with no trace (structure-only validation).
func newStructural() *Design { return NewDesign("t", nil) }

func TestEmptyDesignValid(t *testing.T) {
	if _, err := newStructural().Validate(); err != nil {
		t.Fatalf("empty design: %v", err)
	}
}

func TestSimpleDatapathValid(t *testing.T) {
	d := newStructural()
	a := d.AddRegister("A", 8)
	b := d.AddRegister("B", 8)
	u := d.AddUnit("alu", 8, vt.OpAdd, vt.OpSub)
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPUnitIn, Comp: u, Index: 0}, 8)
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: b}, Endpoint{Kind: EPUnitIn, Comp: u, Index: 1}, 8)
	d.AddLink(Endpoint{Kind: EPUnitOut, Comp: u}, Endpoint{Kind: EPRegIn, Comp: a}, 8)
	if _, err := d.Validate(); err != nil {
		t.Fatalf("valid datapath rejected: %v", err)
	}
}

func TestSharedSinkRequiresMux(t *testing.T) {
	d := newStructural()
	a := d.AddRegister("A", 8)
	b := d.AddRegister("B", 8)
	c := d.AddRegister("C", 8)
	// Two links into C.regin without a mux: illegal.
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPRegIn, Comp: c}, 8)
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: b}, Endpoint{Kind: EPRegIn, Comp: c}, 8)
	_, err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "requires a mux") {
		t.Fatalf("got %v, want shared-sink error", err)
	}
}

func TestMuxResolvesSharedSink(t *testing.T) {
	d := newStructural()
	a := d.AddRegister("A", 8)
	b := d.AddRegister("B", 8)
	c := d.AddRegister("C", 8)
	m := d.AddMux("mC", 8, 2)
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPMuxIn, Comp: m, Index: 0}, 8)
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: b}, Endpoint{Kind: EPMuxIn, Comp: m, Index: 1}, 8)
	d.AddLink(Endpoint{Kind: EPMuxOut, Comp: m}, Endpoint{Kind: EPRegIn, Comp: c}, 8)
	if _, err := d.Validate(); err != nil {
		t.Fatalf("mux datapath rejected: %v", err)
	}
}

func TestStructuralErrors(t *testing.T) {
	cases := []struct {
		name    string
		build   func(d *Design)
		wantSub string
	}{
		{"zero-width-reg", func(d *Design) { d.AddRegister("A", 0) }, "width 0"},
		{"one-way-mux", func(d *Design) {
			m := d.AddMux("m", 8, 1)
			r := d.AddRegister("A", 8)
			d.AddLink(Endpoint{Kind: EPRegOut, Comp: r}, Endpoint{Kind: EPMuxIn, Comp: m, Index: 0}, 8)
			d.AddLink(Endpoint{Kind: EPMuxOut, Comp: m}, Endpoint{Kind: EPRegIn, Comp: r}, 8)
		}, "ways"},
		{"unfed-mux-way", func(d *Design) {
			m := d.AddMux("m", 8, 2)
			r := d.AddRegister("A", 8)
			d.AddLink(Endpoint{Kind: EPRegOut, Comp: r}, Endpoint{Kind: EPMuxIn, Comp: m, Index: 0}, 8)
			d.AddLink(Endpoint{Kind: EPMuxOut, Comp: m}, Endpoint{Kind: EPRegIn, Comp: r}, 8)
		}, "not fed"},
		{"unused-mux-out", func(d *Design) {
			m := d.AddMux("m", 8, 2)
			r := d.AddRegister("A", 8)
			s := d.AddRegister("B", 8)
			d.AddLink(Endpoint{Kind: EPRegOut, Comp: r}, Endpoint{Kind: EPMuxIn, Comp: m, Index: 0}, 8)
			d.AddLink(Endpoint{Kind: EPRegOut, Comp: s}, Endpoint{Kind: EPMuxIn, Comp: m, Index: 1}, 8)
		}, "output unused"},
		{"foreign-component", func(d *Design) {
			ghost := &Register{ID: 99, Name: "ghost", Width: 8}
			r := d.AddRegister("A", 8)
			d.AddLink(Endpoint{Kind: EPRegOut, Comp: ghost}, Endpoint{Kind: EPRegIn, Comp: r}, 8)
		}, "not in the design"},
		{"source-as-sink", func(d *Design) {
			a := d.AddRegister("A", 8)
			b := d.AddRegister("B", 8)
			d.AddLink(Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPRegOut, Comp: b}, 8)
		}, "not a sink"},
		{"sink-as-source", func(d *Design) {
			a := d.AddRegister("A", 8)
			b := d.AddRegister("B", 8)
			d.AddLink(Endpoint{Kind: EPRegIn, Comp: a}, Endpoint{Kind: EPRegIn, Comp: b}, 8)
		}, "not a source"},
		{"wide-link", func(d *Design) {
			a := d.AddRegister("A", 4)
			b := d.AddRegister("B", 8)
			d.AddLink(Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPRegIn, Comp: b}, 8)
		}, "wider than its source"},
		{"kind-mismatch", func(d *Design) {
			a := d.AddRegister("A", 8)
			b := d.AddRegister("B", 8)
			d.AddLink(Endpoint{Kind: EPUnitOut, Comp: a}, Endpoint{Kind: EPRegIn, Comp: b}, 8)
		}, "inconsistent"},
		{"mux-way-range", func(d *Design) {
			m := d.AddMux("m", 8, 2)
			a := d.AddRegister("A", 8)
			d.AddLink(Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPMuxIn, Comp: m, Index: 5}, 8)
		}, "out of range"},
		{"unit-no-fns", func(d *Design) {
			d.Units = append(d.Units, &Unit{ID: 0, Name: "u", Width: 8, Fns: map[vt.OpKind]bool{}})
		}, "no functions"},
		{"port-direction", func(d *Design) {
			p := d.AddPort("X", 8, true) // input port
			r := d.AddRegister("A", 8)
			// Using an input port as a sink.
			d.AddLink(Endpoint{Kind: EPRegOut, Comp: r}, Endpoint{Kind: EPPortOut, Comp: p}, 8)
		}, "inconsistent"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newStructural()
			c.build(d)
			_, err := d.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestConstDeduplication(t *testing.T) {
	d := newStructural()
	c1 := d.AddConst(5, 8)
	c2 := d.AddConst(5, 8)
	c3 := d.AddConst(5, 4)
	if c1 != c2 {
		t.Error("identical constants should be shared")
	}
	if c1 == c3 {
		t.Error("different widths should be distinct")
	}
	if len(d.Consts) != 2 {
		t.Errorf("consts %d, want 2", len(d.Consts))
	}
}

func TestRemoveComponents(t *testing.T) {
	d := newStructural()
	r := d.AddRegister("A", 8)
	u := d.AddUnit("u", 8, vt.OpAdd)
	m := d.AddMux("m", 8, 2)
	l := d.AddLink(Endpoint{Kind: EPRegOut, Comp: r}, Endpoint{Kind: EPRegIn, Comp: r}, 8)
	d.RemoveRegister(r)
	d.RemoveUnit(u)
	d.RemoveMux(m)
	d.RemoveLink(l)
	if len(d.Registers)+len(d.Units)+len(d.Muxes)+len(d.Links) != 0 {
		t.Fatal("removal failed")
	}
	// Removing twice is harmless.
	d.RemoveRegister(r)
	d.RemoveUnit(u)
	d.RemoveMux(m)
	d.RemoveLink(l)
}

func TestCounts(t *testing.T) {
	d := newStructural()
	d.AddRegister("A", 8)
	d.AddRegister("B", 4)
	d.AddMemory("M", 8, 16)
	d.AddUnit("alu", 8, vt.OpAdd, vt.OpSub)
	d.AddPort("X", 8, true)
	m := d.AddMux("m", 8, 3)
	d.AddConst(1, 8)
	a := d.Registers[0]
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPMuxIn, Comp: m, Index: 0}, 8)
	d.AddState("main", 0)
	c := d.Counts()
	if c.Registers != 2 || c.RegBits != 12 {
		t.Errorf("registers %d/%d bits, want 2/12", c.Registers, c.RegBits)
	}
	if c.Memories != 1 || c.MemBits != 128 {
		t.Errorf("memories %d/%d bits, want 1/128", c.Memories, c.MemBits)
	}
	if c.Units != 1 || c.UnitFns != 2 {
		t.Errorf("units %d/%d fns", c.Units, c.UnitFns)
	}
	if c.Muxes != 1 || c.MuxInputs != 3 {
		t.Errorf("muxes %d/%d inputs", c.Muxes, c.MuxInputs)
	}
	if c.Links != 1 || c.LinkBits != 8 {
		t.Errorf("links %d/%d bits", c.Links, c.LinkBits)
	}
	if c.States != 1 || c.Ports != 1 || c.Consts != 1 {
		t.Errorf("states/ports/consts: %+v", c)
	}
}

func TestEndpointWidth(t *testing.T) {
	r := &Register{Name: "A", Width: 8}
	m := &Memory{Name: "M", Width: 8, Words: 10}
	if w := (Endpoint{Kind: EPRegOut, Comp: r}).Width(); w != 8 {
		t.Errorf("reg width %d", w)
	}
	if w := (Endpoint{Kind: EPMemAddr, Comp: m}).Width(); w != 4 {
		t.Errorf("addr width %d, want 4 (10 words)", w)
	}
	if w := (Endpoint{Kind: EPMemDataOut, Comp: m}).Width(); w != 8 {
		t.Errorf("data width %d", w)
	}
}

func TestAddrWidth(t *testing.T) {
	cases := []struct{ words, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}, {257, 9},
	}
	for _, c := range cases {
		if got := addrWidth(c.words); got != c.want {
			t.Errorf("addrWidth(%d) = %d, want %d", c.words, got, c.want)
		}
	}
}

func TestFeedsThroughMuxTree(t *testing.T) {
	d := newStructural()
	a := d.AddRegister("A", 8)
	b := d.AddRegister("B", 8)
	c := d.AddRegister("C", 8)
	dst := d.AddRegister("D", 8)
	m1 := d.AddMux("m1", 8, 2)
	m2 := d.AddMux("m2", 8, 2)
	// a, b -> m1; m1, c -> m2 -> D.
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPMuxIn, Comp: m1, Index: 0}, 8)
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: b}, Endpoint{Kind: EPMuxIn, Comp: m1, Index: 1}, 8)
	d.AddLink(Endpoint{Kind: EPMuxOut, Comp: m1}, Endpoint{Kind: EPMuxIn, Comp: m2, Index: 0}, 8)
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: c}, Endpoint{Kind: EPMuxIn, Comp: m2, Index: 1}, 8)
	d.AddLink(Endpoint{Kind: EPMuxOut, Comp: m2}, Endpoint{Kind: EPRegIn, Comp: dst}, 8)
	if _, err := d.Validate(); err != nil {
		t.Fatalf("mux tree invalid: %v", err)
	}
	target := Endpoint{Kind: EPRegIn, Comp: dst}
	for _, src := range []*Register{a, b, c} {
		if !d.Feeds(Endpoint{Kind: EPRegOut, Comp: src}, target) {
			t.Errorf("%s should feed D through the mux tree", src.Name)
		}
	}
	if d.Feeds(Endpoint{Kind: EPRegOut, Comp: dst}, target) {
		t.Error("D does not feed itself")
	}
}

func TestFindRouteModesAndDepthBound(t *testing.T) {
	d := newStructural()
	a := d.AddRegister("A", 4)
	b := d.AddRegister("B", 4)
	dst := d.AddRegister("D", 8)
	j := d.AddJunction("j", 8, 2)
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPJunctionIn, Comp: j, Index: 0}, 4)
	d.AddLink(Endpoint{Kind: EPRegOut, Comp: b}, Endpoint{Kind: EPJunctionIn, Comp: j, Index: 1}, 4)
	d.AddLink(Endpoint{Kind: EPJunctionOut, Comp: j}, Endpoint{Kind: EPRegIn, Comp: dst}, 8)
	src, sink := Endpoint{Kind: EPRegOut, Comp: a}, Endpoint{Kind: EPRegIn, Comp: dst}
	if r := d.FindRoute(src, sink, true); len(r) != 2 || !d.Feeds(src, sink) {
		t.Errorf("route through the junction = %v, want its 2 links", r)
	}
	if r := d.FindRoute(src, sink, false); r != nil {
		t.Errorf("mux-only route passed through a junction: %v", r)
	}

	// A chain of muxes: A reaches the end of a chain of up to four muxes,
	// not of five.
	for n := 1; n <= 5; n++ {
		d := newStructural()
		a := d.AddRegister("A", 8)
		from := Endpoint{Kind: EPRegOut, Comp: a}
		src := from
		for i := 0; i < n; i++ {
			m := d.AddMux(fmt.Sprintf("m%d", i), 8, 2)
			d.AddLink(from, Endpoint{Kind: EPMuxIn, Comp: m}, 8)
			from = Endpoint{Kind: EPMuxOut, Comp: m}
		}
		sink := Endpoint{Kind: EPRegIn, Comp: d.AddRegister("D", 8)}
		d.AddLink(from, sink, 8)
		if got, want := d.Feeds(src, sink), n <= 4; got != want {
			t.Errorf("through %d muxes: Feeds = %t, want %t", n, got, want)
		}
	}
}

// TestSelectRouteFollowsLinkOrder: when a source reaches a sink along two
// routes, control derivation selects the first route in link order.
func TestSelectRouteFollowsLinkOrder(t *testing.T) {
	prog, err := isps.Parse("t", "processor P { reg A<7:0> reg B<7:0> reg D<7:0> main m { D := A } }")
	if err != nil {
		t.Fatal(err)
	}
	for _, viaM1First := range []bool{true, false} {
		tr, err := vt.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDesign("t", tr)
		regs := map[string]*Register{}
		for _, car := range tr.Carriers {
			regs[car.Name] = d.AddRegister(car.Name, car.Width)
			d.CarrierReg[car] = regs[car.Name]
		}
		s := d.AddState(tr.Main.Name, 0)
		for _, op := range tr.Main.Ops {
			d.OpState[op] = s
			s.Ops = append(s.Ops, op)
		}
		a, b, dst := regs["A"], regs["B"], regs["D"]
		m1 := d.AddMux("m1", 8, 2)
		m2 := d.AddMux("m2", 8, 2)
		out := func(r *Register) Endpoint { return Endpoint{Kind: EPRegOut, Comp: r} }
		viaM1 := func() { d.AddLink(out(a), Endpoint{Kind: EPMuxIn, Comp: m1, Index: 0}, 8) }
		direct := func() { d.AddLink(out(a), Endpoint{Kind: EPMuxIn, Comp: m2, Index: 1}, 8) }
		if viaM1First {
			viaM1()
			direct()
		} else {
			direct()
			viaM1()
		}
		d.AddLink(out(b), Endpoint{Kind: EPMuxIn, Comp: m1, Index: 1}, 8)
		d.AddLink(Endpoint{Kind: EPMuxOut, Comp: m1}, Endpoint{Kind: EPMuxIn, Comp: m2, Index: 0}, 8)
		d.AddLink(Endpoint{Kind: EPMuxOut, Comp: m2}, Endpoint{Kind: EPRegIn, Comp: dst}, 8)
		ctl, err := d.Validate()
		if err != nil {
			t.Fatal(err)
		}
		want := map[*Mux]int{m2: 1}
		if viaM1First {
			want = map[*Mux]int{m1: 0, m2: 0}
		}
		if !reflect.DeepEqual(ctl[0].MuxSel, want) {
			t.Errorf("viaM1First=%t: selects %v, want %v", viaM1First, ctl[0].MuxSel, want)
		}
	}
}

func TestReportAndStrings(t *testing.T) {
	d := newStructural()
	d.AddRegister("A", 8)
	d.AddMemory("M", 8, 4)
	d.AddUnit("alu", 8, vt.OpAdd)
	d.AddPort("X", 1, true)
	rep := d.Report()
	for _, want := range []string{"design t", "reg A<8>", "mem M[4]<8>", "unit alu<8>{add}", "port in X<1>"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
