package core

import (
	"repro/internal/prod"
	"repro/internal/vt"
)

// Phase 0 — trace refinement. The CMU front end folded constants and
// simplified operators while translating ISPS into the Value Trace; the
// DAA inherited a cleaner trace than a literal reading of the source. The
// rules here reproduce that knowledge as productions over the trace:
//
//   - a comparison against zero is the nonzero TEST reduction (1 gate/bit
//     instead of a comparator);
//   - one-bit boolean identities: x neq 0 ≡ x, x eql 1 ≡ x, x eql 0 ≡ ¬x;
//   - adding/subtracting zero and or/xor with zero pass the operand
//     through;
//   - operators whose results end up unused are deleted.
//
// The rules rewrite the trace in place; Synthesize re-validates it before
// allocation, and the co-simulation suite (internal/rtlsim) checks that
// refined designs still compute the described behavior.

func (s *synth) seedTrace(wm *prod.WM) {
	for _, op := range s.tr.AllOps() {
		if !op.IsPure() || op.Kind == vt.OpConst {
			continue
		}
		wm.Make("top", prod.Attrs{"op": op, "kind": op.Kind.String()})
	}
}

// constArg returns the index of a constant argument with the given value,
// or -1.
func constArg(op *vt.Op, val uint64) int {
	for i, a := range op.Args {
		if a.IsConst && a.ConstVal == val {
			return i
		}
	}
	return -1
}

func topOp(m *prod.Match) *vt.Op { return m.El(0).Get("op").(*vt.Op) }

var traceRules = []*prod.Rule{
	{
		Name:     "reduce-compare-zero-to-test",
		Doc:      "x neq 0 over a wide x is the nonzero reduction: a TEST, not a comparator.",
		Patterns: []prod.Pattern{prod.P("top").Eq("kind", "neq")},
		Where: func(_ prod.Host, m *prod.Match) bool {
			op := topOp(m)
			zi := constArg(op, 0)
			return zi >= 0 && op.Args[1-zi].Width > 1
		},
		Action: func(tx *prod.Tx, m *prod.Match) {
			if _, err := tx.Do("become-test", topOp(m)); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"kind": "test"})
		},
	},
	{
		Name:     "drop-1bit-nonzero-test",
		Doc:      "Testing a 1-bit value for nonzero is the value itself.",
		Patterns: []prod.Pattern{prod.P("top").Eq("kind", "neq")},
		Where: func(_ prod.Host, m *prod.Match) bool {
			op := topOp(m)
			zi := constArg(op, 0)
			return zi >= 0 && op.Args[1-zi].Width == 1
		},
		Action: func(tx *prod.Tx, m *prod.Match) {
			op := topOp(m)
			other := op.Args[1-constArg(op, 0)]
			if _, err := tx.Do("replace-uses", op.Result, other); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"kind": "dead-candidate"})
		},
	},
	{
		Name:     "drop-1bit-eql-one",
		Doc:      "Comparing a 1-bit value against one is the value itself.",
		Patterns: []prod.Pattern{prod.P("top").Eq("kind", "eql")},
		Where: func(_ prod.Host, m *prod.Match) bool {
			op := topOp(m)
			oi := constArg(op, 1)
			return oi >= 0 && op.Args[oi].Width == 1 && op.Args[1-oi].Width == 1
		},
		Action: func(tx *prod.Tx, m *prod.Match) {
			op := topOp(m)
			other := op.Args[1-constArg(op, 1)]
			if _, err := tx.Do("replace-uses", op.Result, other); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"kind": "dead-candidate"})
		},
	},
	{
		Name:     "reduce-1bit-eql-zero-to-not",
		Doc:      "Comparing a 1-bit value against zero is its complement: an inverter, not a comparator.",
		Patterns: []prod.Pattern{prod.P("top").Eq("kind", "eql")},
		Where: func(_ prod.Host, m *prod.Match) bool {
			op := topOp(m)
			zi := constArg(op, 0)
			return zi >= 0 && op.Args[zi].Width == 1 && op.Args[1-zi].Width == 1
		},
		Action: func(tx *prod.Tx, m *prod.Match) {
			if _, err := tx.Do("become-not", topOp(m)); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"kind": "not"})
		},
	},
	{
		Name:     "fold-additive-identity",
		Doc:      "x + 0, x - 0, x or 0, x xor 0 pass x through; the operator becomes dead.",
		Patterns: []prod.Pattern{prod.P("top").Bind("kind", "k")},
		Where: func(_ prod.Host, m *prod.Match) bool {
			if m.Get("k") == "dead-candidate" {
				return false // folded already: its own Modify must not re-fire it
			}
			op := topOp(m)
			var zi int
			switch op.Kind {
			case vt.OpAdd, vt.OpOr, vt.OpXor:
				zi = constArg(op, 0)
			case vt.OpSub:
				if len(op.Args) == 2 && op.Args[1].IsConst && op.Args[1].ConstVal == 0 {
					zi = 1
				} else {
					zi = -1
				}
			default:
				return false
			}
			if zi < 0 {
				return false
			}
			other := op.Args[1-zi]
			return other.Width == op.Result.Width
		},
		Action: func(tx *prod.Tx, m *prod.Match) {
			op := topOp(m)
			zi := constArg(op, 0)
			if op.Kind == vt.OpSub {
				zi = 1
			}
			other := op.Args[1-zi]
			if _, err := tx.Do("replace-uses", op.Result, other); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"kind": "dead-candidate"})
		},
	},
	{
		Name:     "delete-dead-operator",
		Doc:      "A pure operator whose result is unused contributes no hardware: delete it.",
		Patterns: []prod.Pattern{prod.P("top")},
		Where: func(h prod.Host, m *prod.Match) bool {
			op := topOp(m)
			if op.Result == nil || len(op.Result.Uses) > 0 {
				return false
			}
			for _, other := range h.(*synth).tr.AllOps() {
				if other.CondVal == op.Result {
					return false
				}
				if other.Kind == vt.OpSelect && len(other.Args) > 0 && other.Args[0] == op.Result {
					return false
				}
			}
			return true
		},
		Action: func(tx *prod.Tx, m *prod.Match) {
			if _, err := tx.Do("remove-op", topOp(m)); err != nil {
				return
			}
			tx.Remove(m.El(0))
		},
	},
}

// finishTrace re-validates the refined trace before allocation begins.
func (s *synth) finishTrace() error {
	return s.tr.Validate()
}
