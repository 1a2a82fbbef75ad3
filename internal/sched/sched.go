// Package sched partitions value-trace bodies into control steps — the
// control-allocation substrate of the VLSI Design Automation Assistant.
//
// Step semantics match the register-transfer model in internal/rtl:
// combinational operators (reads, computes, wiring) may chain within a
// step; register writes, memory writes, and control operators take effect
// at end-of-step, so their dependents must occupy strictly later steps.
// Schedule owns that rule for every allocator: Earliest is the dependence
// bound, Fits decides what may share a step (the per-step operator cap,
// per-operation-kind unit caps, single-ported memories, and
// one-write-per-register-per-step), and Place records a decision. The
// DAA's control phase fills a Schedule through them as List does.
// Memories are single-ported because the register-transfer model gives
// each memory one address port; that is not a limit callers can raise.
//
// ASAP and ALAP give the unconstrained extremes and mobility; List performs
// resource-constrained list scheduling under Limits.
//
// Schedulers are addressable by name (SchedList, SchedASAP, SchedALAP) so
// callers can sweep the scheduling policy as an option. Infeasible inputs
// (a too-short ALAP length, limits the list scheduler cannot make progress
// under) are reported as errors, never panics: a server sweeping aggressive
// limits must see a failed point, not a crashed daemon.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/vt"
)

// Named scheduling policies, the domain of the flow "scheduler" knob.
const (
	// SchedList is resource-constrained list scheduling (the default).
	SchedList = "list"
	// SchedASAP schedules as early as dependences permit, ignoring Limits.
	SchedASAP = "asap"
	// SchedALAP schedules as late as dependences permit within the ASAP
	// length, ignoring Limits.
	SchedALAP = "alap"
)

// Schedulers lists the valid scheduler names, default first.
func Schedulers() []string { return []string{SchedList, SchedASAP, SchedALAP} }

// Limits bounds the resources the list scheduler may assume per step.
// The zero value means: unlimited units, single-ported memories.
type Limits struct {
	// UnitsPerKind caps concurrent compute operators by kind (0 = no cap).
	UnitsPerKind map[vt.OpKind]int
	// MaxOpsPerStep caps the total operators per step (0 = no cap).
	MaxOpsPerStep int
}

// ForProgram returns l with its default unit caps filled in: when
// UnitsPerKind is nil, every compute kind present in p is capped at one
// unit, the minimum-hardware operating point that the DAA and the
// baseline allocators share.
func (l Limits) ForProgram(p *vt.Program) Limits {
	if l.UnitsPerKind != nil {
		return l
	}
	l.UnitsPerKind = map[vt.OpKind]int{}
	for _, b := range p.Bodies {
		for _, op := range b.Ops {
			if op.Kind.IsCompute() {
				l.UnitsPerKind[op.Kind] = 1
			}
		}
	}
	return l
}

// Schedule assigns each operator of one body to a control step.
// Allocators fill one through Earliest, Fits and Place.
type Schedule struct {
	Body  *vt.Body
	Steps [][]*vt.Op
	OfOp  map[*vt.Op]int

	// use[i] is what the operators Place put in step i claim. Place grows
	// it with Steps, so a step at or past len(use) holds no operator. A
	// step holds about three operators, so each claim list is a short
	// slice.
	use []stepUse
}

// stepUse is one step's claims on the resources the step rule limits.
type stepUse struct {
	ops   int           // operators in the step
	units []vt.OpKind   // the kind of each compute operator
	mems  []*vt.Carrier // memories accessed
	regs  []*vt.Carrier // registers written
}

// New returns an empty schedule of b.
func New(b *vt.Body) *Schedule {
	return &Schedule{Body: b, OfOp: make(map[*vt.Op]int, len(b.Ops))}
}

// Len reports the number of control steps.
func (s *Schedule) Len() int { return len(s.Steps) }

// StrictAfter reports whether dependents of dep must sit in a strictly
// later step (dep commits at end-of-step).
func StrictAfter(dep *vt.Op) bool {
	return dep.Kind == vt.OpWrite || dep.Kind == vt.OpMemWrite || dep.Kind.IsControl()
}

// Earliest returns the first step op's dependences allow: op may chain
// behind a combinational dependence in its step, but sits strictly after
// one that commits at end-of-step. Every dependence must be placed.
func (s *Schedule) Earliest(op *vt.Op) int {
	step := 0
	for _, dep := range op.Deps {
		at := s.OfOp[dep]
		if StrictAfter(dep) {
			at++
		}
		step = max(step, at)
	}
	return step
}

// Fits reports whether op may join the given step under lim: the step
// stays within MaxOpsPerStep and op's unit cap (a cap of 0, or none,
// leaves the kind uncapped), a memory access finds the memory's one port
// free, and a register write finds no other write to that register. A
// step past the end is empty and admits any operator. Fits reads what
// Place recorded and does not test dependences (see Earliest).
func (s *Schedule) Fits(op *vt.Op, step int, lim Limits) bool {
	if step >= len(s.use) {
		return true
	}
	u := &s.use[step]
	if lim.MaxOpsPerStep > 0 && u.ops >= lim.MaxOpsPerStep {
		return false
	}
	switch {
	case op.Kind.IsCompute():
		units := lim.UnitsPerKind[op.Kind]
		busy := 0
		for _, k := range u.units {
			if k == op.Kind {
				busy++
			}
		}
		return units <= 0 || busy < units
	case op.Kind == vt.OpMemRead || op.Kind == vt.OpMemWrite:
		return !slices.Contains(u.mems, op.Carrier)
	case op.Kind == vt.OpWrite:
		return !slices.Contains(u.regs, op.Carrier)
	}
	return true
}

// Place appends op to the given step, growing the schedule to reach it,
// and records what op claims there. A step lists its operators in the
// order they were placed.
func (s *Schedule) Place(op *vt.Op, step int) {
	for len(s.Steps) <= step {
		s.Steps = append(s.Steps, nil)
	}
	for len(s.use) <= step {
		s.use = append(s.use, stepUse{})
	}
	s.Steps[step] = append(s.Steps[step], op)
	s.OfOp[op] = step
	u := &s.use[step]
	u.ops++
	switch {
	case op.Kind.IsCompute():
		u.units = append(u.units, op.Kind)
	case op.Kind == vt.OpMemRead || op.Kind == vt.OpMemWrite:
		u.mems = append(u.mems, op.Carrier)
	case op.Kind == vt.OpWrite:
		u.regs = append(u.regs, op.Carrier)
	}
}

// ASAP schedules each operator as early as dependences permit, with
// unlimited resources.
func ASAP(b *vt.Body) *Schedule {
	s := New(b)
	for _, op := range b.Ops {
		s.Place(op, s.Earliest(op))
	}
	return s
}

// ALAP schedules each operator as late as dependences permit within the
// given schedule length (typically the ASAP length). An infeasible length
// is an error.
func ALAP(b *vt.Body, length int) (*Schedule, error) {
	if length <= 0 {
		length = 1
	}
	succs := successors(b)
	s := New(b)
	s.Steps = make([][]*vt.Op, length)
	for i := len(b.Ops) - 1; i >= 0; i-- {
		op := b.Ops[i]
		step := length - 1
		for _, succ := range succs[op] {
			max := s.OfOp[succ]
			if StrictAfter(op) {
				max--
			}
			if max < step {
				step = max
			}
		}
		if step < 0 {
			return nil, fmt.Errorf("sched: ALAP length %d infeasible for body %s", length, b.Name)
		}
		s.Place(op, step)
	}
	// Keep per-step op order consistent with program order.
	for _, ops := range s.Steps {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Seq < ops[j].Seq })
	}
	return s, nil
}

func successors(b *vt.Body) map[*vt.Op][]*vt.Op {
	succs := make(map[*vt.Op][]*vt.Op, len(b.Ops))
	for _, op := range b.Ops {
		for _, dep := range op.Deps {
			succs[dep] = append(succs[dep], op)
		}
	}
	return succs
}

// Mobility returns ALAP(op) - ASAP(op) for every operator of the body —
// the slack the list scheduler uses as its priority.
func Mobility(b *vt.Body) (map[*vt.Op]int, error) {
	asap := ASAP(b)
	alap, err := ALAP(b, asap.Len())
	if err != nil {
		return nil, err
	}
	m := make(map[*vt.Op]int, len(b.Ops))
	for _, op := range b.Ops {
		m[op] = alap.OfOp[op] - asap.OfOp[op]
	}
	return m, nil
}

// List performs resource-constrained list scheduling: operators become
// ready when their dependences are satisfied and are packed into the
// current step by ascending mobility (critical path first), subject to the
// limits.
func List(b *vt.Body, lim Limits) (*Schedule, error) {
	mobility, err := Mobility(b)
	if err != nil {
		return nil, err
	}
	s := New(b)
	for step := 0; len(s.OfOp) < len(b.Ops); step++ {
		if step > 4*len(b.Ops)+4 {
			return nil, fmt.Errorf("sched: list scheduler stuck on body %s (limits leave %d ops unplaceable)", b.Name, len(b.Ops)-len(s.OfOp))
		}
		s.Steps = append(s.Steps, nil)
		for closed := false; !closed; {
			ready := readyOps(s, step)
			sort.Slice(ready, func(i, j int) bool {
				if mobility[ready[i]] != mobility[ready[j]] {
					return mobility[ready[i]] < mobility[ready[j]]
				}
				return ready[i].Seq < ready[j].Seq
			})
			i := slices.IndexFunc(ready, func(op *vt.Op) bool { return s.Fits(op, step, lim) })
			if i < 0 {
				break
			}
			s.Place(ready[i], step)
			// Control operators end the step; otherwise recompute
			// readiness, since chained consumers may now fit.
			closed = ready[i].Kind.IsControl() && ready[i].Kind != vt.OpNop
		}
		ops := s.Steps[step]
		sort.Slice(ops, func(i, j int) bool { return ops[i].Seq < ops[j].Seq })
	}
	return s, nil
}

// For schedules one body under the named policy. ASAP and ALAP ignore the
// limits; an unknown name is an error.
func For(name string, b *vt.Body, lim Limits) (*Schedule, error) {
	switch name {
	case "", SchedList:
		return List(b, lim)
	case SchedASAP:
		return ASAP(b), nil
	case SchedALAP:
		return ALAP(b, ASAP(b).Len())
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q (want list, asap, or alap)", name)
	}
}

// readyOps returns the unplaced operators whose dependences are all placed
// and allow the given step.
func readyOps(s *Schedule, step int) []*vt.Op {
	var out []*vt.Op
next:
	for _, op := range s.Body.Ops {
		if _, placed := s.OfOp[op]; placed {
			continue
		}
		for _, dep := range op.Deps {
			if _, placed := s.OfOp[dep]; !placed {
				continue next
			}
		}
		if s.Earliest(op) <= step {
			out = append(out, op)
		}
	}
	return out
}

// Verify checks that the schedule covers every operator exactly once and
// respects dependences and the given limits. ASAP/ALAP schedules verify
// with unlimited resources.
func (s *Schedule) Verify(lim Limits) error {
	seen := map[*vt.Op]bool{}
	for step, ops := range s.Steps {
		if lim.MaxOpsPerStep > 0 && len(ops) > lim.MaxOpsPerStep {
			return fmt.Errorf("sched: step %d holds %d ops, over the cap of %d", step, len(ops), lim.MaxOpsPerStep)
		}
		usedKind := map[vt.OpKind]int{}
		usedMem := map[*vt.Carrier]int{}
		regWrites := map[*vt.Carrier][]*vt.Op{}
		for _, op := range ops {
			if op.Body != s.Body {
				return fmt.Errorf("sched: foreign op %s in schedule of %s", op, s.Body.Name)
			}
			if seen[op] {
				return fmt.Errorf("sched: op %s scheduled twice", op)
			}
			seen[op] = true
			if s.OfOp[op] != step {
				return fmt.Errorf("sched: op %s map/step mismatch", op)
			}
			for _, dep := range op.Deps {
				ds, ok := s.OfOp[dep]
				if !ok {
					return fmt.Errorf("sched: dependence of %s unscheduled", op)
				}
				if ds > step || (StrictAfter(dep) && ds >= step) {
					return fmt.Errorf("sched: op %s at step %d violates dependence on %s at %d", op, step, dep, ds)
				}
			}
			if op.Kind.IsCompute() {
				usedKind[op.Kind]++
				if cap, capped := lim.UnitsPerKind[op.Kind]; capped && cap > 0 && usedKind[op.Kind] > cap {
					return fmt.Errorf("sched: step %d exceeds %s cap %d", step, op.Kind, cap)
				}
			}
			switch op.Kind {
			case vt.OpMemRead, vt.OpMemWrite:
				usedMem[op.Carrier]++
				if usedMem[op.Carrier] > 1 {
					return fmt.Errorf("sched: step %d accesses memory %s twice", step, op.Carrier.Name)
				}
			case vt.OpWrite:
				if len(regWrites[op.Carrier]) > 0 {
					return fmt.Errorf("sched: step %d writes %s twice", step, op.Carrier.Name)
				}
				regWrites[op.Carrier] = append(regWrites[op.Carrier], op)
			}
		}
	}
	if len(seen) != len(s.Body.Ops) {
		return fmt.Errorf("sched: %d of %d ops scheduled", len(seen), len(s.Body.Ops))
	}
	return nil
}

// Program schedules every body of a trace with the same limits using the
// list scheduler.
func Program(p *vt.Program, lim Limits) (map[*vt.Body]*Schedule, error) {
	return ProgramWith(SchedList, p, lim)
}

// ProgramWith schedules every body of a trace under the named policy.
func ProgramWith(name string, p *vt.Program, lim Limits) (map[*vt.Body]*Schedule, error) {
	out := make(map[*vt.Body]*Schedule, len(p.Bodies))
	for _, b := range p.Bodies {
		s, err := For(name, b, lim)
		if err != nil {
			return nil, err
		}
		out[b] = s
	}
	return out, nil
}

// TotalSteps sums the step counts of a program schedule.
func TotalSteps(m map[*vt.Body]*Schedule) int {
	n := 0
	//daalint:allow detmap order-insensitive sum
	for _, s := range m {
		n += s.Len()
	}
	return n
}
