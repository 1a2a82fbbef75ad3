package rtl_test

// Control derivation is tested against real allocations, so the tests live
// in an external package that may import the allocators.

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/isps"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// designFor synthesizes src with the DAA and validates the design,
// returning it with the control table Validate derives.
func designFor(t *testing.T, src string) (*rtl.Design, rtl.Control) {
	t.Helper()
	prog, err := isps.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vt.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := res.Design.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return res.Design, ctl
}

func TestControlTableAllBenchmarks(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			tr, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(tr, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.Design.Validate(); err != nil {
				t.Errorf("daa: %v", err)
			}
			tr2, _ := bench.Load(name)
			le, err := alloc.LeftEdge(tr2, alloc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := le.Validate(); err != nil {
				t.Errorf("left-edge: %v", err)
			}
			tr3, _ := bench.Load(name)
			nv, err := alloc.Naive(tr3, alloc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nv.Validate(); err != nil {
				t.Errorf("naive: %v", err)
			}
		})
	}
}

// swapOperands builds the operand-swap mutant of a design: the two
// operand-port links of its first unit with a non-commutative function
// trade ports, so the unit computes B op A where the trace says A op B.
// It reports false when that unit has no two-operand wiring.
func swapOperands(d *rtl.Design) (*rtl.Unit, bool) {
	for _, u := range d.Units {
		nonComm := false
		for fn := range u.Fns {
			nonComm = nonComm || !fn.IsCommutative()
		}
		if !nonComm {
			continue
		}
		var ports [2]*rtl.Link
		for _, l := range d.Links {
			if l.To.Kind == rtl.EPUnitIn && l.To.Comp == u {
				ports[l.To.Index] = l
			}
		}
		if ports[0] == nil || ports[1] == nil {
			return u, false
		}
		ports[0].To.Index, ports[1].To.Index = 1, 0
		return u, true
	}
	return nil, false
}

// TestValidateRejectsSwappedOperands: wiring that feeds a non-commutative
// unit its operands in the wrong order is a defect, even though every
// source still reaches a port of the unit. gcd's mutant is the one
// exception: control derivation picks different selects on both of its
// multiplexers, so that design still computes what the trace describes.
func TestValidateRejectsSwappedOperands(t *testing.T) {
	equivalent := map[string]bool{"gcd": true}
	mutated := 0
	for _, name := range bench.Names() {
		tr, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		u, ok := swapOperands(res.Design)
		if !ok {
			continue
		}
		mutated++
		_, err = res.Design.Validate()
		switch {
		case equivalent[name] && err != nil:
			t.Errorf("%s: equivalent mutant of %s rejected: %v", name, u.Name, err)
		case !equivalent[name] && (err == nil || !strings.Contains(err.Error(), "no path from")):
			t.Errorf("%s: mutant with the operands of %s swapped: got %v, want a route error", name, u.Name, err)
		}
	}
	if mutated != 7 {
		t.Errorf("built %d mutants, want 7 (every benchmark but counter and ibm370)", mutated)
	}
}

// TestValidateRejectsStepOrder: the design lists each body's steps in index
// order and each step's operators in trace order, and the simulator, the
// controller graph and the allocators rely on both. Each mutant keeps the
// schedule itself intact and breaks only the listing.
func TestValidateRejectsStepOrder(t *testing.T) {
	cases := []struct {
		name, want string
		mutate     func(*rtl.Design) bool
	}{
		{"steps", "out of index order", func(d *rtl.Design) bool {
			// Two consecutive steps of one body trade their indices and
			// their operators, so the body's list runs 1, 0.
			for i := 0; i+1 < len(d.States); i++ {
				a, b := d.States[i], d.States[i+1]
				if a.Body != b.Body {
					continue
				}
				a.Index, b.Index = b.Index, a.Index
				a.Ops, b.Ops = b.Ops, a.Ops
				for _, op := range a.Ops {
					d.OpState[op] = a
				}
				for _, op := range b.Ops {
					d.OpState[op] = b
				}
				return true
			}
			return false
		}},
		{"ops", "out of trace order", func(d *rtl.Design) bool {
			for _, s := range d.States {
				if len(s.Ops) >= 2 {
					s.Ops[0], s.Ops[1] = s.Ops[1], s.Ops[0]
					return true
				}
			}
			return false
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := bench.Load("gcd")
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(tr, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.Design.Validate(); err != nil {
				t.Fatalf("unmutated design: %v", err)
			}
			if !c.mutate(res.Design) {
				t.Fatal("gcd's design offers nothing to reorder")
			}
			_, err = res.Design.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestControlTableSignals(t *testing.T) {
	d, table := designFor(t, `
processor P {
    reg A<7:0>
    reg B<7:0>
    main m { A := A + B }
}`)
	if len(table) != len(d.States) {
		t.Fatalf("table rows %d, states %d", len(table), len(d.States))
	}
	// The single step loads A and runs the adder.
	sc := table[0]
	if len(sc.Loads) != 1 || sc.Loads[0].Name != "A" {
		t.Errorf("loads %v, want [A]", sc.Loads)
	}
	if len(sc.UnitFn) != 1 {
		t.Errorf("unit selects %v, want one adder", sc.UnitFn)
	}
	for _, fn := range sc.UnitFn {
		if fn != vt.OpAdd {
			t.Errorf("function %v, want add", fn)
		}
	}
}

func TestControlTableMuxSelectsDiffer(t *testing.T) {
	// A shared adder fed from different registers in different steps must
	// assert different mux ways.
	_, table := designFor(t, `
processor P {
    reg A<7:0>
    reg B<7:0>
    main m {
        A := A + 1
        B := B + 1
    }
}`)
	sels := map[int]bool{}
	for _, sc := range table {
		for _, way := range sc.MuxSel {
			sels[way] = true
		}
	}
	if len(sels) < 2 {
		t.Errorf("mux ways used %v, want at least two distinct selections", sels)
	}
}

func TestControlStatsAndRender(t *testing.T) {
	d, table := designFor(t, `
processor P {
    reg A<7:0>
    reg Z
    main m {
        if Z { A := A + 1 } else { A := A - 1 }
    }
}`)
	cs := table.Stats()
	if cs.States != len(d.States) || cs.Signals == 0 || cs.MaxSignals == 0 {
		t.Errorf("implausible control stats: %+v", cs)
	}
	var sb strings.Builder
	if err := table.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "load A") {
		t.Errorf("control table missing load:\n%s", out)
	}
	if !strings.Contains(out, "=add") || !strings.Contains(out, "=sub") {
		t.Errorf("control table missing function selects:\n%s", out)
	}
}

func TestConcatUsesJunctionNotMux(t *testing.T) {
	// A concat feeding a port is parallel wiring: a junction, never a mux.
	d, _ := designFor(t, `
processor P {
    reg A<3:0>
    reg B<3:0>
    port out W<7:0>
    main m { W := A @ B }
}`)
	if len(d.Junctions) != 1 {
		t.Fatalf("junctions %d, want 1", len(d.Junctions))
	}
	if len(d.Muxes) != 0 {
		t.Fatalf("muxes %d, want 0 (concat is wiring)", len(d.Muxes))
	}
}

func TestPartialWritesSerialize(t *testing.T) {
	// Two field writes to P in one description must land in different
	// steps (strictly one write per register per step).
	d, _ := designFor(t, `
processor P {
    reg PS<7:0>
    reg A<7:0>
    main m {
        PS<0:0> := A eql 0
        PS<7:7> := A<7:7>
    }
}`)
	steps := map[int]bool{}
	for _, st := range d.States {
		for _, op := range st.Ops {
			if op.Kind == vt.OpWrite && op.Carrier.Name == "PS" {
				if steps[st.Index] {
					t.Fatalf("two writes to PS in step %d", st.Index)
				}
				steps[st.Index] = true
			}
		}
	}
	if len(steps) != 2 {
		t.Fatalf("PS written in %d steps, want 2", len(steps))
	}
}
