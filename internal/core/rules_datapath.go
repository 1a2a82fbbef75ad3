package core

import (
	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// Phase 5 — data-path allocation. One routing rule per transfer class
// wires operand and result movements onto links, growing or inserting
// multiplexers when a destination is shared. Commutative operators get a
// dedicated rule that first orients their operands to reuse existing links
// — the prototype's best-known "designer knowledge" rule.
//
// Constants are seeded last so the engine's recency preference allocates
// every hardwired constant before any routing rule needs it.

func (s *synth) seedDatapath(wm *prod.WM) {
	ops := s.tr.AllOps()
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		var class string
		switch {
		case op.Kind.IsCompute():
			class = "compute"
		case op.Kind == vt.OpWrite:
			class = "write"
		case op.Kind == vt.OpMemRead:
			class = "mem-read"
		case op.Kind == vt.OpMemWrite:
			class = "mem-write"
		default:
			continue
		}
		wm.Make("task", prod.Attrs{
			"op":          op,
			"class":       class,
			"commutative": commutes(op),
		})
	}
	// Parking transfers, in descending value order for ascending firing.
	vals := s.d.ParkedValues()
	for i := len(vals) - 1; i >= 0; i-- {
		wm.Make("park", prod.Attrs{"val": vals[i]})
	}
	// Constants last: highest recency, allocated first.
	seen := map[[2]uint64]bool{}
	for _, op := range ops {
		for _, a := range op.Args {
			if op.Kind == vt.OpSelect || op.Kind == vt.OpLoop {
				continue // selector values feed the controller
			}
			for _, leaf := range rtl.ConstLeaves(a) {
				key := [2]uint64{leaf.ConstVal, uint64(leaf.Width)}
				if !seen[key] {
					seen[key] = true
					wm.Make("constant", prod.Attrs{"value": int(leaf.ConstVal), "width": leaf.Width})
				}
			}
		}
	}
}

// routeTask wires one operator's transfers and retires the task element.
func routeTask(tx *prod.Tx, m *prod.Match) {
	op := m.El(0).Get("op").(*vt.Op)
	if _, err := tx.Do("route-op", op); err != nil {
		return
	}
	tx.Modify(m.El(0), prod.Attrs{"routed": true})
}

func routeRule(name, class, doc string) *prod.Rule {
	return &prod.Rule{
		Name: name,
		Doc:  doc,
		Patterns: []prod.Pattern{
			prod.P("task").Eq("class", class).Eq("commutative", false).Absent("routed"),
		},
		Action: routeTask,
	}
}

var datapathRules = []*prod.Rule{
	{
		Name:     "allocate-constant-source",
		Doc:      "A constant consumed by the datapath becomes a hardwired source.",
		Patterns: []prod.Pattern{prod.P("constant").Absent("done")},
		Action: func(tx *prod.Tx, m *prod.Match) {
			el := m.El(0)
			if _, err := tx.Do("add-const", el.Int("value"), el.Int("width")); err != nil {
				return
			}
			tx.Modify(el, prod.Attrs{"done": true})
		},
	},
	{
		Name: "orient-and-route-commutative-operation",
		Doc:  "Swap the operands of a commutative operation when the swap reuses existing links instead of growing a mux, then route.",
		Patterns: []prod.Pattern{
			prod.P("task").Eq("class", "compute").Eq("commutative", true).Absent("routed"),
		},
		Action: func(tx *prod.Tx, m *prod.Match) {
			op := m.El(0).Get("op").(*vt.Op)
			if _, err := tx.Do("orient-op", op, tx.Host().(*synth).orientSwap(op)); err != nil {
				return
			}
			routeTask(tx, m)
		},
	},
	routeRule("route-computation-operands", "compute",
		"Wire each operand of a bound computation to its unit port, through a mux when the port is shared."),
	routeRule("route-register-transfer", "write",
		"Wire a written value to its destination register or output port."),
	routeRule("route-memory-address", "mem-read",
		"Wire the address of a memory read to the memory's address port."),
	routeRule("route-memory-write", "mem-write",
		"Wire address and data of a memory write to the memory's ports."),
	{
		Name:     "route-value-parking",
		Doc:      "Wire a step-crossing value from its producer into its holding register.",
		Patterns: []prod.Pattern{prod.P("park").Absent("routed")},
		Action: func(tx *prod.Tx, m *prod.Match) {
			v := m.El(0).Get("val").(*vt.Value)
			if _, err := tx.Do("route-park", v); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"routed": true})
		},
	},
}
