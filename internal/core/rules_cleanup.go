package core

import (
	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// Phase 6 — global improvement, the signature knowledge of the DAA. The
// rules shrink the allocation produced by the earlier phases:
//
//   - holding registers whose occupants can never coexist merge, across
//     mutually exclusive DECODE arms in particular (equal-width merges are
//     preferred, as the expert designers preferred);
//   - functional units that are never busy in the same control step fold
//     into multi-function ALUs: arithmetic with arithmetic, logic with
//     logic, comparators into the arithmetic ALU (a comparison is a
//     subtraction), and logic into the arithmetic ALU last — the 6502-era
//     single-ALU datapath. Shifters stay separate, as the experts kept
//     dedicated shift paths.
//
// After the rules quiesce the interconnect is rebuilt from the merged
// bindings, re-applying the commutativity rule; the net effect is the
// component-count drop the paper's evaluation highlights.

func (s *synth) seedCleanup(wm *prod.WM) {
	s.embed = embedMap(s.tr)
	regs := make([]*rtl.Register, 0, len(s.regVals))
	for r := range s.regVals {
		regs = append(regs, r)
	}
	sortRegs(regs)
	for _, r := range regs {
		wm.Make("hreg", prod.Attrs{"reg": r, "width": r.Width})
	}
	for _, u := range s.d.Units {
		// Classify by the smallest op kind so the class is independent of
		// map iteration order when a unit already hosts several functions.
		class := "other"
		var minFn vt.OpKind
		first := true
		//daalint:allow detmap order-insensitive minimum
		for k := range u.Fns {
			if first || k < minFn {
				minFn, first = k, false
			}
		}
		if !first {
			class = opClass(minFn)
		}
		wm.Make("unit", prod.Attrs{"unit": u, "class": class})
	}
}

func sortRegs(regs []*rtl.Register) {
	for i := 1; i < len(regs); i++ {
		for j := i; j > 0 && regs[j].ID < regs[j-1].ID; j-- {
			regs[j], regs[j-1] = regs[j-1], regs[j]
		}
	}
}

// mergeRegs folds register r2 into r1 and retires r2.
func mergeRegs(tx *prod.Tx, m *prod.Match) {
	el1, el2 := m.El(0), m.El(1)
	r1 := el1.Get("reg").(*rtl.Register)
	r2 := el2.Get("reg").(*rtl.Register)
	if _, err := tx.Do("merge-regs", r1, r2); err != nil {
		return
	}
	tx.Remove(el2)
	tx.Modify(el1, prod.Attrs{"width": r1.Width})
}

// foldUnits builds the action that folds unit u2 into u1, retires u2, and
// files the survivor under class.
func foldUnits(class string) func(*prod.Tx, *prod.Match) {
	return func(tx *prod.Tx, m *prod.Match) {
		el1, el2 := m.El(0), m.El(1)
		u1 := el1.Get("unit").(*rtl.Unit)
		u2 := el2.Get("unit").(*rtl.Unit)
		if _, err := tx.Do("fold-units", u1, u2); err != nil {
			return
		}
		tx.Remove(el2)
		tx.Modify(el1, prod.Attrs{"class": class})
	}
}

func mergePair(h prod.Host, m *prod.Match) bool {
	r1 := m.El(0).Get("reg").(*rtl.Register)
	r2 := m.El(1).Get("reg").(*rtl.Register)
	return r1.ID < r2.ID && h.(*synth).regsCanMerge(r1, r2)
}

func foldPair(c1, c2 string) func(prod.Host, *prod.Match) bool {
	return func(h prod.Host, m *prod.Match) bool {
		s := h.(*synth)
		u1 := m.El(0).Get("unit").(*rtl.Unit)
		u2 := m.El(1).Get("unit").(*rtl.Unit)
		if u1 == u2 {
			return false
		}
		if c1 == c2 && u1.ID > u2.ID {
			return false // canonical order for same-class folds
		}
		// Folding units of different function sets at different widths
		// would widen the narrow functions and grow the design; the
		// experts folded width-compatible operators. Same-function units
		// fold at any width (the union is no larger).
		if u1.Width != u2.Width && !sameFns(u1, u2) {
			return false
		}
		return s.unitsNeverCoBusy(u1, u2) && s.foldSaves(u1, u2)
	}
}

func sameFns(u1, u2 *rtl.Unit) bool {
	if len(u1.Fns) != len(u2.Fns) {
		return false
	}
	//daalint:allow detmap order-insensitive membership test
	for k := range u1.Fns {
		if !u2.Fns[k] {
			return false
		}
	}
	return true
}

var cleanupRules = []*prod.Rule{
	{
		Name: "merge-twin-holding-registers",
		Doc:  "Merge two equal-width holding registers whose occupants can never coexist — typically temporaries of mutually exclusive DECODE arms.",
		Patterns: []prod.Pattern{
			prod.P("hreg").Bind("width", "w"),
			prod.P("hreg").Bind("width", "w"),
		},
		Where:  mergePair,
		Action: mergeRegs,
	},
	{
		Name: "merge-holding-registers",
		Doc:  "Merge holding registers of different widths when their occupants can never coexist; the survivor takes the larger width.",
		Patterns: []prod.Pattern{
			prod.P("hreg"),
			prod.P("hreg"),
		},
		Where:  mergePair,
		Action: mergeRegs,
	},
	{
		Name: "fold-arithmetic-units",
		Doc:  "Two arithmetic units never busy in the same step fold into one arithmetic ALU.",
		Patterns: []prod.Pattern{
			prod.P("unit").Eq("class", "arith"),
			prod.P("unit").Eq("class", "arith"),
		},
		Where:  foldPair("arith", "arith"),
		Action: foldUnits("arith"),
	},
	{
		Name: "fold-logic-units",
		Doc:  "Two logic units never busy in the same step fold into one logic unit.",
		Patterns: []prod.Pattern{
			prod.P("unit").Eq("class", "logic"),
			prod.P("unit").Eq("class", "logic"),
		},
		Where:  foldPair("logic", "logic"),
		Action: foldUnits("logic"),
	},
	{
		Name: "fold-comparators",
		Doc:  "Two comparators never busy in the same step fold into one.",
		Patterns: []prod.Pattern{
			prod.P("unit").Eq("class", "compare"),
			prod.P("unit").Eq("class", "compare"),
		},
		Where:  foldPair("compare", "compare"),
		Action: foldUnits("compare"),
	},
	{
		Name: "fold-shifters",
		Doc:  "Two shifters never busy in the same step fold into one; shifters stay out of the ALU (dedicated shift path).",
		Patterns: []prod.Pattern{
			prod.P("unit").Eq("class", "shift"),
			prod.P("unit").Eq("class", "shift"),
		},
		Where:  foldPair("shift", "shift"),
		Action: foldUnits("shift"),
	},
	{
		Name: "fold-comparator-into-arithmetic-alu",
		Doc:  "A comparison is a subtraction: fold an idle-compatible comparator into the arithmetic ALU.",
		Patterns: []prod.Pattern{
			prod.P("unit").Eq("class", "arith"),
			prod.P("unit").Eq("class", "compare"),
		},
		Where:  foldPair("arith", "compare"),
		Action: foldUnits("arith"),
	},
	{
		Name: "fold-logic-into-arithmetic-alu",
		Doc:  "The era's single-ALU datapath: fold an idle-compatible logic unit into the arithmetic ALU (the 6502 ALU performs ADC, AND, ORA, EOR).",
		Patterns: []prod.Pattern{
			prod.P("unit").Eq("class", "arith"),
			prod.P("unit").Eq("class", "logic"),
		},
		Where:  foldPair("arith", "logic"),
		Action: foldUnits("arith"),
	},
}

// finishCleanup rebuilds the interconnect from the merged bindings.
func (s *synth) finishCleanup() error {
	return s.rewire()
}
