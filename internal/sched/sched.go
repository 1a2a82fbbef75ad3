// Package sched partitions value-trace bodies into control steps — the
// control-allocation substrate of the VLSI Design Automation Assistant.
//
// Step semantics match the register-transfer model in internal/rtl:
// combinational operators (reads, computes, wiring) may chain within a
// step; register writes, memory writes, and control operators take effect
// at end-of-step, so their dependents must occupy strictly later steps.
//
// ASAP and ALAP give the unconstrained extremes and mobility; List performs
// resource-constrained list scheduling honoring per-operation-kind unit
// caps, single-ported memories, and one-write-per-register-per-step.
// Memories are single-ported because the register-transfer model gives
// each memory one address port; that is not a limit callers can raise.
//
// Schedulers are addressable by name (SchedList, SchedASAP, SchedALAP) so
// callers can sweep the scheduling policy as an option. Infeasible inputs
// (a too-short ALAP length, limits the list scheduler cannot make progress
// under) are reported as errors, never panics: a server sweeping aggressive
// limits must see a failed point, not a crashed daemon.
package sched

import (
	"fmt"
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
type Schedule struct {
	Body  *vt.Body
	Steps [][]*vt.Op
	OfOp  map[*vt.Op]int
}

// Len reports the number of control steps.
func (s *Schedule) Len() int { return len(s.Steps) }

// StrictAfter reports whether dependents of dep must sit in a strictly
// later step (dep commits at end-of-step).
func StrictAfter(dep *vt.Op) bool {
	return dep.Kind == vt.OpWrite || dep.Kind == vt.OpMemWrite || dep.Kind.IsControl()
}

// ASAP schedules each operator as early as dependences permit, with
// unlimited resources.
func ASAP(b *vt.Body) *Schedule {
	s := &Schedule{Body: b, OfOp: make(map[*vt.Op]int, len(b.Ops))}
	for _, op := range b.Ops {
		step := 0
		for _, dep := range op.Deps {
			min := s.OfOp[dep]
			if StrictAfter(dep) {
				min++
			}
			if min > step {
				step = min
			}
		}
		s.OfOp[op] = step
		for len(s.Steps) <= step {
			s.Steps = append(s.Steps, nil)
		}
		s.Steps[step] = append(s.Steps[step], op)
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
	s := &Schedule{Body: b, OfOp: make(map[*vt.Op]int, len(b.Ops))}
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
		s.OfOp[op] = step
		s.Steps[step] = append(s.Steps[step], op)
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
	if len(b.Ops) == 0 {
		return &Schedule{Body: b, OfOp: map[*vt.Op]int{}}, nil
	}
	mobility, err := Mobility(b)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Body: b, OfOp: make(map[*vt.Op]int, len(b.Ops))}
	scheduled := make(map[*vt.Op]bool, len(b.Ops))
	remaining := len(b.Ops)

	for step := 0; remaining > 0; step++ {
		if step > 4*len(b.Ops)+4 {
			return nil, fmt.Errorf("sched: list scheduler stuck on body %s (limits leave %d ops unplaceable)", b.Name, remaining)
		}
		var placed []*vt.Op
		usedKind := map[vt.OpKind]int{}
		usedMem := map[*vt.Carrier]int{}
		regWrites := map[*vt.Carrier][]*vt.Op{}
		total := 0
		for {
			ready := readyOps(b, s, scheduled, step)
			if len(ready) == 0 {
				break
			}
			sort.Slice(ready, func(i, j int) bool {
				if mobility[ready[i]] != mobility[ready[j]] {
					return mobility[ready[i]] < mobility[ready[j]]
				}
				return ready[i].Seq < ready[j].Seq
			})
			progress := false
			for _, op := range ready {
				if lim.MaxOpsPerStep > 0 && total >= lim.MaxOpsPerStep {
					break
				}
				if !fits(op, lim, usedKind, usedMem, regWrites) {
					continue
				}
				place(op, step, s, scheduled, usedKind, usedMem, regWrites)
				placed = append(placed, op)
				total++
				remaining--
				progress = true
				// Control operators end the step.
				if op.Kind.IsControl() && op.Kind != vt.OpNop {
					progress = false
					ready = nil
				}
				break // recompute readiness: chained consumers may now fit
			}
			if !progress {
				break
			}
		}
		sort.Slice(placed, func(i, j int) bool { return placed[i].Seq < placed[j].Seq })
		s.Steps = append(s.Steps, placed)
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

// readyOps returns unscheduled operators whose dependences allow placement
// in the given step.
func readyOps(b *vt.Body, s *Schedule, scheduled map[*vt.Op]bool, step int) []*vt.Op {
	var out []*vt.Op
	for _, op := range b.Ops {
		if scheduled[op] {
			continue
		}
		ok := true
		for _, dep := range op.Deps {
			if !scheduled[dep] {
				ok = false
				break
			}
			min := s.OfOp[dep]
			if StrictAfter(dep) {
				min++
			}
			if min > step {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, op)
		}
	}
	return out
}

func fits(op *vt.Op, lim Limits, usedKind map[vt.OpKind]int, usedMem map[*vt.Carrier]int, regWrites map[*vt.Carrier][]*vt.Op) bool {
	if op.Kind.IsCompute() {
		if cap, capped := lim.UnitsPerKind[op.Kind]; capped && cap > 0 && usedKind[op.Kind] >= cap {
			return false
		}
	}
	switch op.Kind {
	case vt.OpMemRead, vt.OpMemWrite:
		if usedMem[op.Carrier] > 0 {
			return false
		}
	case vt.OpWrite:
		if len(regWrites[op.Carrier]) > 0 {
			return false
		}
	}
	return true
}

func place(op *vt.Op, step int, s *Schedule, scheduled map[*vt.Op]bool, usedKind map[vt.OpKind]int, usedMem map[*vt.Carrier]int, regWrites map[*vt.Carrier][]*vt.Op) {
	scheduled[op] = true
	s.OfOp[op] = step
	if op.Kind.IsCompute() {
		usedKind[op.Kind]++
	}
	switch op.Kind {
	case vt.OpMemRead, vt.OpMemWrite:
		usedMem[op.Carrier]++
	case vt.OpWrite:
		regWrites[op.Carrier] = append(regWrites[op.Carrier], op)
	}
}

// Verify checks that the schedule covers every operator exactly once and
// respects dependences and the given limits. ASAP/ALAP schedules verify
// with unlimited resources.
func (s *Schedule) Verify(lim Limits) error {
	seen := map[*vt.Op]bool{}
	for step, ops := range s.Steps {
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
