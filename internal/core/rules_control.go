package core

import (
	"fmt"

	"repro/internal/bind"
	"repro/internal/prod"
	"repro/internal/vt"
)

// Phase 2 — control-step allocation. Each body is walked in program order
// by a cursor element; one placement rule per operator class puts the next
// operator into the earliest control step of the body's sched.Schedule
// that satisfies its dependences and the resource limits (one unit per
// operation kind by default, a single memory port, one write per register
// per step). The schedule states that rule for every allocator
// (Schedule.Earliest and Fits): combinational operators chain within a
// step; writes and control operators take effect at end-of-step, exactly
// as in internal/rtl.

// opClass names the operator's placement class.
func opClass(k vt.OpKind) string {
	switch k {
	case vt.OpRead:
		return "read"
	case vt.OpConst:
		return "constant"
	case vt.OpSlice, vt.OpConcat:
		return "wiring"
	case vt.OpAdd, vt.OpSub, vt.OpNeg:
		return "arith"
	case vt.OpAnd, vt.OpOr, vt.OpXor, vt.OpNot:
		return "logic"
	case vt.OpEql, vt.OpNeq, vt.OpLss, vt.OpLeq, vt.OpGtr, vt.OpGeq, vt.OpTest:
		return "compare"
	case vt.OpShl, vt.OpShr:
		return "shift"
	case vt.OpWrite:
		return "write"
	case vt.OpMemRead:
		return "mem-read"
	case vt.OpMemWrite:
		return "mem-write"
	case vt.OpSelect:
		return "branch"
	case vt.OpLoop:
		return "loop"
	case vt.OpCall:
		return "call"
	case vt.OpLeave:
		return "leave"
	case vt.OpNop:
		return "nop"
	}
	return "other"
}

// computeClasses are the opClass values that need functional units.
var computeClasses = map[string]bool{"arith": true, "logic": true, "compare": true, "shift": true}

func (s *synth) seedControl(wm *prod.WM) {
	for _, body := range s.tr.Bodies {
		for _, op := range body.Ops {
			wm.Make("op", prod.Attrs{
				"op":    op,
				"body":  body,
				"seq":   op.Seq,
				"class": opClass(op.Kind),
			})
		}
		wm.Make("body", prod.Attrs{"body": body, "cursor": 0, "count": len(body.Ops)})
	}
}

// placeNext chooses the earliest step of the operator's body schedule that
// its dependences allow and the step rule admits (the decision), applies
// it through the place-op effect, and advances the body cursor.
func placeNext(tx *prod.Tx, m *prod.Match) {
	s := tx.Host().(*synth)
	bodyEl, opEl := m.El(0), m.El(1)
	op := opEl.Get("op").(*vt.Op)
	sc := s.steps[op.Body]
	step := sc.Earliest(op)
	for !sc.Fits(op, step, s.lim) {
		step++
	}
	if _, err := tx.Do("place-op", op, step); err != nil {
		return
	}
	tx.Remove(opEl)
	tx.Modify(bodyEl, prod.Attrs{"cursor": bodyEl.Int("cursor") + 1})
}

// placeRule builds the shared shape of the placement rules: the body
// cursor joined to the next operator of a given class.
func placeRule(name, class, doc string) *prod.Rule {
	return &prod.Rule{
		Name: name,
		Doc:  doc,
		Patterns: []prod.Pattern{
			prod.P("body").Bind("body", "b").Bind("cursor", "c"),
			prod.P("op").Bind("body", "b").Bind("seq", "c").Eq("class", class),
		},
		Action: placeNext,
	}
}

var controlRules = []*prod.Rule{
	placeRule("place-carrier-read", "read", "Register and port reads are combinational: pack them into the current step."),
	placeRule("place-constant", "constant", "Constants are free sources available in any step."),
	placeRule("place-wiring", "wiring", "Bit selection and concatenation are wiring and take no step of their own."),
	placeRule("place-arithmetic", "arith", "Arithmetic chains combinationally but is bounded by the per-step adder budget."),
	placeRule("place-logical", "logic", "Logical operations chain combinationally within the logic-unit budget."),
	placeRule("place-comparison", "compare", "Comparisons and tests chain combinationally within the comparator budget."),
	placeRule("place-shift", "shift", "Shifts chain combinationally within the shifter budget."),
	placeRule("place-register-write", "write", "A register transfer commits at end-of-step; strictly one write per register per step (partial field writes serialize)."),
	placeRule("place-memory-read", "mem-read", "A memory read claims the single memory port for the step."),
	placeRule("place-memory-write", "mem-write", "A memory write claims the single memory port and commits at end-of-step."),
	placeRule("place-branch", "branch", "A DECODE or conditional ends the current control step; its arms get their own step sequences."),
	placeRule("place-loop", "loop", "A loop ends the current step; condition and body are stepped separately."),
	placeRule("place-subroutine-call", "call", "A call ends the step and transfers control to the callee's step sequence."),
	placeRule("place-leave", "leave", "LEAVE is a control exit and ends the step."),
	placeRule("place-no-op", "nop", "An explicit no-operation occupies the current step."),
	{
		Name: "close-body",
		Doc:  "A body whose cursor has consumed every operator is complete.",
		Patterns: []prod.Pattern{
			prod.P("body").Bind("cursor", "n").Bind("count", "n"),
		},
		Action: func(tx *prod.Tx, m *prod.Match) { tx.Remove(m.El(0)) },
	},
}

// finishControl materializes the control steps chosen by the placement
// rules as design states and binds every operator to its state. The
// cursor placed each body's operators in trace order, so every step lists
// its operators in the order rtl.Design.Validate requires.
func (s *synth) finishControl() error {
	for _, body := range s.tr.Bodies {
		for _, op := range body.Ops {
			if _, ok := s.steps[body].OfOp[op]; !ok {
				return fmt.Errorf("operator %s was never placed", op)
			}
		}
	}
	bind.ApplySchedule(s.d, s.steps)
	return nil
}
