package core

import (
	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// Phase 3 — operator allocation and binding. Compute operators are bound
// to functional units of the same operation kind: an existing unit is
// reused whenever it is idle in the operator's control step; otherwise a
// new unit of the operator's class is allocated. Folding different kinds
// into multi-function ALUs is deliberately left to the global-improvement
// phase, as in the prototype.

func (s *synth) seedOperators(wm *prod.WM) {
	for _, op := range s.tr.AllOps() {
		if !op.Kind.IsCompute() {
			continue
		}
		wm.Make("op", prod.Attrs{
			"op":    op,
			"kind":  op.Kind.String(),
			"class": opClass(op.Kind),
			"width": op.UnitWidth(),
		})
	}
}

// bindOpToUnit performs the binding bookkeeping shared by every rule here.
func (s *synth) bindOpToUnit(op *vt.Op, u *rtl.Unit) {
	if w := op.UnitWidth(); w > u.Width {
		u.Width = w
	}
	s.d.OpUnit[op] = u
	s.unitBusy[unitState{u, s.d.OpState[op]}] = true
}

// freeUnit returns the first allocated unit of the given kind that is idle
// in the operator's step, or nil.
func (s *synth) freeUnit(kind vt.OpKind, st *rtl.State) *rtl.Unit {
	for _, u := range s.d.Units {
		if u.Has(kind) && !s.unitBusy[unitState{u, st}] {
			return u
		}
	}
	return nil
}

// allocateRule builds the per-class unit allocation rules.
func allocateRule(name, class, doc string) *prod.Rule {
	return &prod.Rule{
		Name:     name,
		Doc:      doc,
		Patterns: []prod.Pattern{prod.P("op").Eq("class", class).Absent("bound")},
		Where: func(h prod.Host, m *prod.Match) bool {
			s := h.(*synth)
			op := m.El(0).Get("op").(*vt.Op)
			return s.freeUnit(op.Kind, s.d.OpState[op]) == nil
		},
		Action: func(tx *prod.Tx, m *prod.Match) {
			op := m.El(0).Get("op").(*vt.Op)
			res, err := tx.Do("alloc-unit", op)
			if err != nil {
				return
			}
			u := res.(*rtl.Unit)
			tx.Make("unit", prod.Attrs{"unit": u, "kind": op.Kind.String(), "class": class})
			tx.Modify(m.El(0), prod.Attrs{"bound": true})
		},
	}
}

var operatorRules = []*prod.Rule{
	{
		Name: "bind-operation-to-idle-unit",
		Doc:  "Reuse an existing unit of the operation's kind when it is idle in the operation's control step.",
		Patterns: []prod.Pattern{
			prod.P("op").Absent("bound").Bind("kind", "k"),
			prod.P("unit").Bind("kind", "k"),
		},
		Where: func(h prod.Host, m *prod.Match) bool {
			s := h.(*synth)
			op := m.El(0).Get("op").(*vt.Op)
			u := m.El(1).Get("unit").(*rtl.Unit)
			return !s.unitBusy[unitState{u, s.d.OpState[op]}]
		},
		Action: func(tx *prod.Tx, m *prod.Match) {
			op := m.El(0).Get("op").(*vt.Op)
			u := m.El(1).Get("unit").(*rtl.Unit)
			if _, err := tx.Do("bind-op-unit", op, u); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"bound": true})
		},
	},
	allocateRule("allocate-arithmetic-unit", "arith",
		"No idle adder/subtracter/negater of this kind exists: allocate one."),
	allocateRule("allocate-logic-unit", "logic",
		"No idle gate-level logic unit of this kind exists: allocate one."),
	allocateRule("allocate-comparator", "compare",
		"No idle comparator of this kind exists: allocate one."),
	allocateRule("allocate-shifter", "shift",
		"No idle shifter of this kind exists: allocate one."),
}
