// Package alloc implements the non-knowledge-based baseline allocators the
// DAA paper series compared against:
//
//   - Naive is the maximal design: one functional unit per operator, one
//     holding register per intermediate value, no sharing of anything. It
//     corresponds to a direct reading of the value trace — the design the
//     DAA's global-improvement rules exist to beat.
//   - LeftEdge is the classical algorithmic allocator: resource-constrained
//     list scheduling, greedy per-kind functional-unit sharing, and
//     left-edge interval packing of holding registers (Hashimoto–Stevens,
//     as used by the CMU-DA algorithmic tools contemporary with the DAA).
//
// Both produce complete rtl.Designs through the same policy-free binder
// (internal/bind), so the comparison isolates allocation policy exactly as
// the paper's did. Neither validates its design: callers run
// rtl.Design.Validate, as flow's validate stage does once per compilation.
package alloc

import (
	"fmt"
	"sort"

	"repro/internal/bind"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/vt"
)

// Naive builds the maximal design with no hardware sharing. It schedules
// under the same limits as the other allocators (defaulting to one unit
// per operation kind), so the three designs implement identical control
// steps and the comparison isolates binding policy, as the paper's did.
func Naive(trace *vt.Program, opt Options) (*rtl.Design, error) {
	scheds, err := sched.ProgramWith(opt.Scheduler, trace, opt.Limits.ForProgram(trace))
	if err != nil {
		return nil, err
	}
	d := rtl.NewDesign(trace.Name+"-naive", trace)
	bind.Carriers(d)
	bind.ApplySchedule(d, scheds)
	for _, op := range trace.AllOps() {
		if op.Kind.IsCompute() {
			d.OpUnit[op] = d.AddUnit(fmt.Sprintf("u%d.%s", op.ID, op.Kind), op.UnitWidth(), op.Kind)
		}
	}
	for i, v := range bind.CrossingValues(d) {
		d.ValueReg[v] = d.AddRegister(fmt.Sprintf("t%d", i), v.Width)
	}
	if err := bind.Wire(d); err != nil {
		return nil, err
	}
	return d, nil
}

// Options configures the baseline allocators.
type Options struct {
	// Limits constrains the list scheduler. When UnitsPerKind is nil, every
	// compute kind present in the trace is capped at one unit, the
	// minimum-hardware operating point of the classical allocators and the
	// DAA's default.
	Limits sched.Limits
	// Scheduler names the scheduling policy (sched.SchedList, SchedASAP,
	// SchedALAP); empty means list. ASAP and ALAP ignore Limits, so their
	// designs may demand more concurrent hardware than the list schedule's.
	Scheduler string
}

// LeftEdge builds a design with greedy functional-unit sharing and
// left-edge holding-register packing.
func LeftEdge(trace *vt.Program, opt Options) (*rtl.Design, error) {
	scheds, err := sched.ProgramWith(opt.Scheduler, trace, opt.Limits.ForProgram(trace))
	if err != nil {
		return nil, err
	}
	d := rtl.NewDesign(trace.Name+"-leftedge", trace)
	bind.Carriers(d)
	bind.ApplySchedule(d, scheds)
	shareUnits(d)
	packRegisters(d)
	if err := bind.Wire(d); err != nil {
		return nil, err
	}
	return d, nil
}

// shareUnits binds compute operators to per-kind unit pools: within a
// control step each concurrent operator of a kind gets its own unit; across
// steps units are reused. Unit widths grow to the widest operator bound.
func shareUnits(d *rtl.Design) {
	pools := map[vt.OpKind][]*rtl.Unit{}
	ops := computeOps(d)
	lastState := map[*rtl.Unit]*rtl.State{}
	for _, op := range ops {
		s := d.OpState[op]
		var unit *rtl.Unit
		for _, u := range pools[op.Kind] {
			if lastState[u] != s {
				unit = u
				break
			}
		}
		if unit == nil {
			unit = d.AddUnit(fmt.Sprintf("%s%d", op.Kind, len(pools[op.Kind])), op.UnitWidth(), op.Kind)
			pools[op.Kind] = append(pools[op.Kind], unit)
		}
		if w := op.UnitWidth(); w > unit.Width {
			unit.Width = w
		}
		lastState[unit] = s
		d.OpUnit[op] = unit
	}
}

// computeOps returns the trace's compute operators ordered by control step
// (state ID: d.States is in creation order) then program order, the order
// each step lists its operators. Operators in different bodies never
// execute concurrently (control is a single sequential machine), so the
// only conflict to avoid is two operators on one unit in one step.
func computeOps(d *rtl.Design) []*vt.Op {
	var ops []*vt.Op
	for _, st := range d.States {
		for _, op := range st.Ops {
			if op.Kind.IsCompute() {
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// packRegisters allocates holding registers by the left-edge algorithm,
// packing value lifetimes within each body into shared register tracks.
// Parking happens at end-of-step, so a track is free for a new value whose
// start is at or after the previous occupant's last read.
func packRegisters(d *rtl.Design) {
	type track struct {
		body  string
		width int
		hi    int
		vals  []*vt.Value
	}
	byBody := map[string][]*vt.Value{}
	for _, v := range bind.CrossingValues(d) {
		body := v.Def.Body.Name
		byBody[body] = append(byBody[body], v)
	}
	bodies := make([]string, 0, len(byBody))
	for b := range byBody {
		bodies = append(bodies, b)
	}
	sort.Strings(bodies)
	var tracks []*track
	for _, body := range bodies {
		vals := byBody[body]
		sort.Slice(vals, func(i, j int) bool {
			li, _ := bind.Lifetime(d, vals[i])
			lj, _ := bind.Lifetime(d, vals[j])
			if li != lj {
				return li < lj
			}
			return vals[i].ID < vals[j].ID
		})
		var local []*track
		for _, v := range vals {
			lo, hi := bind.Lifetime(d, v)
			var tr *track
			for _, cand := range local {
				if cand.hi <= lo {
					tr = cand
					break
				}
			}
			if tr == nil {
				tr = &track{body: body}
				local = append(local, tr)
				tracks = append(tracks, tr)
			}
			tr.hi = hi
			if v.Width > tr.width {
				tr.width = v.Width
			}
			tr.vals = append(tr.vals, v)
		}
	}
	for i, tr := range tracks {
		r := d.AddRegister(fmt.Sprintf("t%d", i), tr.width)
		for _, v := range tr.vals {
			d.ValueReg[v] = r
		}
	}
}
