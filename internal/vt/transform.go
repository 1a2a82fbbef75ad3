package vt

import "fmt"

// In-place trace transformations used by the DAA's trace-refinement rules
// (the CMU front end folded constants and simplified operators during
// Value Trace translation). All transformations preserve the structural
// invariants checked by Validate; semantic preservation is checked by the
// co-simulation tests in internal/rtlsim.

// ReplaceUses redirects every use of old to new. Both values must belong
// to the same body. Dependence edges of the consumers are repaired: the
// edge to old's producer is dropped when no remaining argument needs it,
// and an edge to new's producer is added.
func ReplaceUses(p *Program, old, new *Value) error {
	if old == new {
		return nil
	}
	if old.Def == nil || new.Def == nil {
		return fmt.Errorf("vt: ReplaceUses on producer-less value")
	}
	if old.Def.Body != new.Def.Body {
		return fmt.Errorf("vt: ReplaceUses across bodies (%s vs %s)", old.Def.Body.Name, new.Def.Body.Name)
	}
	uses := old.Uses
	old.Uses = nil
	for _, use := range uses {
		for i, a := range use.Args {
			if a == old {
				use.Args[i] = new
			}
		}
		new.Uses = append(new.Uses, use)
		repairDeps(use)
	}
	// Loop conditions reference their value outside the argument lists.
	for _, op := range p.AllOps() {
		if op.CondVal == old {
			op.CondVal = new
		}
	}
	return nil
}

// DetachArg removes the i-th argument of op, unregistering the use and
// repairing op's dependence edges.
func DetachArg(op *Op, i int) {
	v := op.Args[i]
	op.Args = append(op.Args[:i], op.Args[i+1:]...)
	removeUse(v, op)
	repairDeps(op)
}

func removeUse(v *Value, op *Op) {
	for i, u := range v.Uses {
		if u == op {
			v.Uses = append(v.Uses[:i], v.Uses[i+1:]...)
			return
		}
	}
}

// repairDeps rebuilds the data-dependence portion of op.Deps from its
// current arguments, keeping every non-data (hazard/barrier) edge. A
// non-data edge is any dependence on an operator that produces none of
// op's arguments.
func repairDeps(op *Op) {
	needed := map[*Op]bool{}
	for _, a := range op.Args {
		if a.Def != nil && a.Def.Body == op.Body {
			needed[a.Def] = true
		}
	}
	producesArg := func(d *Op) bool {
		if d.Result == nil {
			return false
		}
		for _, a := range op.Args {
			if a == d.Result {
				return true
			}
		}
		return false
	}
	var deps []*Op
	for _, d := range op.Deps {
		if d.Result != nil && !producesArg(d) && wasDataDep(d, op) {
			continue // stale data edge from a replaced argument
		}
		deps = append(deps, d)
		delete(needed, d)
	}
	for d := range needed {
		deps = append(deps, d)
	}
	// Keep determinism: order by Seq.
	for i := 1; i < len(deps); i++ {
		for j := i; j > 0 && deps[j].Seq < deps[j-1].Seq; j-- {
			deps[j], deps[j-1] = deps[j-1], deps[j]
		}
	}
	op.Deps = deps
}

// wasDataDep reports whether d's only relationship to op is producing a
// (former) argument — i.e. d is a pure producer, not a hazard or barrier
// source.
func wasDataDep(d, op *Op) bool {
	switch d.Kind {
	case OpWrite, OpMemWrite, OpSelect, OpLoop, OpCall, OpLeave:
		return false // hazard/barrier edges always stay
	case OpRead, OpMemRead:
		return false // conservatively keep: read ops pin write hazards
	}
	return true
}

// IsPure reports whether the operator has no side effects and no control
// role, so it may be deleted when its result is unused.
func (o *Op) IsPure() bool {
	switch o.Kind {
	case OpConst, OpRead, OpSlice, OpConcat:
		return true
	}
	return o.Kind.IsCompute()
}

// RemoveOp deletes a pure operator whose result is unused, splicing it out
// of its body, renumbering, and re-pointing dependents at the operator's
// own dependences.
func RemoveOp(p *Program, op *Op) error {
	if !op.IsPure() {
		return fmt.Errorf("vt: cannot remove impure op %s", op)
	}
	if op.Result != nil && len(op.Result.Uses) > 0 {
		return fmt.Errorf("vt: op %s still has %d uses", op, len(op.Result.Uses))
	}
	for _, other := range p.AllOps() {
		if other.CondVal != nil && other.CondVal == op.Result {
			return fmt.Errorf("vt: op %s feeds a loop condition", op)
		}
	}
	body := op.Body
	idx := -1
	for i, x := range body.Ops {
		if x == op {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("vt: op %s not in its body", op)
	}
	// Unregister argument uses.
	for _, a := range op.Args {
		removeUse(a, op)
	}
	// Dependents inherit this op's dependences.
	for _, other := range body.Ops {
		if other == op {
			continue
		}
		had := false
		var deps []*Op
		for _, d := range other.Deps {
			if d == op {
				had = true
				continue
			}
			deps = append(deps, d)
		}
		if had {
			for _, d := range op.Deps {
				dup := false
				for _, e := range deps {
					if e == d {
						dup = true
						break
					}
				}
				if !dup {
					deps = append(deps, d)
				}
			}
			for i := 1; i < len(deps); i++ {
				for j := i; j > 0 && deps[j].Seq < deps[j-1].Seq; j-- {
					deps[j], deps[j-1] = deps[j-1], deps[j]
				}
			}
			other.Deps = deps
		}
	}
	body.Ops = append(body.Ops[:idx], body.Ops[idx+1:]...)
	for i, x := range body.Ops {
		x.Seq = i
	}
	return nil
}

// BecomeTest rewrites a compare-against-zero operator into a TEST (the
// nonzero reduction): op must be OpNeq with a constant-zero argument.
func BecomeTest(op *Op) error {
	if op.Kind != OpNeq || len(op.Args) != 2 {
		return fmt.Errorf("vt: BecomeTest on %s", op)
	}
	zi := -1
	for i, a := range op.Args {
		if a.IsConst && a.ConstVal == 0 {
			zi = i
		}
	}
	if zi < 0 {
		return fmt.Errorf("vt: BecomeTest without a zero argument")
	}
	DetachArg(op, zi)
	op.Kind = OpTest
	return nil
}

// BecomeNot rewrites a 1-bit equality-with-zero into a complement: op must
// be OpEql over 1-bit arguments with a constant-zero argument.
func BecomeNot(op *Op) error {
	if op.Kind != OpEql || len(op.Args) != 2 {
		return fmt.Errorf("vt: BecomeNot on %s", op)
	}
	zi := -1
	for i, a := range op.Args {
		if a.IsConst && a.ConstVal == 0 && a.Width == 1 {
			zi = i
		}
	}
	if zi < 0 || op.Args[1-zi].Width != 1 {
		return fmt.Errorf("vt: BecomeNot needs 1-bit operands with a zero")
	}
	DetachArg(op, zi)
	op.Kind = OpNot
	return nil
}

// Clone deep-copies a trace: bodies, operators, values, branches, and
// dependence edges. The DAA's trace refinement, the only writer of a
// trace, rewrites in place as the CMU front end did, so synthesis and
// replay refine a clone and leave the trace they were given untouched.
func Clone(p *Program) *Program {
	out := &Program{
		Name:    p.Name,
		Source:  p.Source,
		nextVal: p.nextVal,
		nextOp:  p.nextOp,
	}
	cars := make(map[*Carrier]*Carrier, len(p.Carriers))
	for _, c := range p.Carriers {
		nc := *c
		out.Carriers = append(out.Carriers, &nc)
		cars[c] = &nc
	}
	bodies := make(map[*Body]*Body, len(p.Bodies))
	for _, b := range p.Bodies {
		nb := &Body{ID: b.ID, Name: b.Name, Kind: b.Kind}
		out.Bodies = append(out.Bodies, nb)
		bodies[b] = nb
	}
	for _, b := range p.Bodies {
		if b.Parent != nil {
			bodies[b].Parent = bodies[b.Parent]
		}
	}
	if p.Main != nil {
		out.Main = bodies[p.Main]
	}
	vals := map[*Value]*Value{}
	cloneVal := func(v *Value) *Value {
		if v == nil {
			return nil
		}
		if nv, ok := vals[v]; ok {
			return nv
		}
		nv := &Value{ID: v.ID, Width: v.Width, IsConst: v.IsConst, ConstVal: v.ConstVal}
		if v.Carrier != nil {
			nv.Carrier = cars[v.Carrier]
		}
		vals[v] = nv
		return nv
	}
	ops := map[*Op]*Op{}
	for _, b := range p.Bodies {
		nb := bodies[b]
		for _, op := range b.Ops {
			no := &Op{
				ID: op.ID, Kind: op.Kind, Body: nb, Seq: op.Seq,
				Hi: op.Hi, Lo: op.Lo, Partial: op.Partial,
				LoopKind: op.LoopKind, Count: op.Count, Pos: op.Pos,
			}
			if op.Carrier != nil {
				no.Carrier = cars[op.Carrier]
			}
			for _, a := range op.Args {
				na := cloneVal(a)
				no.Args = append(no.Args, na)
				na.Uses = append(na.Uses, no)
			}
			if op.Result != nil {
				no.Result = cloneVal(op.Result)
				no.Result.Def = no
			}
			for _, br := range op.Branches {
				no.Branches = append(no.Branches, &Branch{
					Values:    append([]uint64(nil), br.Values...),
					Otherwise: br.Otherwise,
					Body:      bodies[br.Body],
				})
			}
			if op.Callee != nil {
				no.Callee = bodies[op.Callee]
			}
			if op.CondBody != nil {
				no.CondBody = bodies[op.CondBody]
			}
			if op.LoopBody != nil {
				no.LoopBody = bodies[op.LoopBody]
			}
			no.CondVal = cloneVal(op.CondVal)
			ops[op] = no
			nb.Ops = append(nb.Ops, no)
		}
	}
	for _, b := range p.Bodies {
		for _, op := range b.Ops {
			for _, d := range op.Deps {
				ops[op].Deps = append(ops[op].Deps, ops[d])
			}
		}
	}
	return out
}
