package rtl

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/vt"
)

// Validate checks the structural and binding invariants of the design and
// derives its controller, returning the control table (nil for a design
// without a trace). It is the one check a design passes: flow's validate
// stage runs it once per compilation.
//
// Structure
//   - component widths positive; muxes have ≥ 2 ways; memories ≥ 1 word
//   - link endpoints reference components of this design, with kinds
//     consistent with the component type; sources feed sinks
//   - every sink endpoint has at most one incoming link — sharing a
//     destination requires a multiplexer (this is the invariant that forces
//     interconnect allocation to be honest)
//   - every mux way is fed exactly once and every mux output is used
//
// Binding (against the value trace)
//   - every carrier referenced by the trace is bound to a register, memory,
//     or port of sufficient width
//   - each body's steps are listed in index order (Steps), and each step
//     lists its operators in trace order
//   - every operator is scheduled into a control step of its own body, and
//     dependences never run backwards; writes, memory writes, and control
//     operators take effect at end-of-step, so dependents sit strictly later
//   - compute operators are bound to units implementing their function at
//     sufficient width; no unit executes two operators in one step; a
//     memory is accessed at most once per step; a register is written
//     strictly at most once per step
//   - a value consumed in a later step than its producer is held in an
//     allocated register
//
// Control (one walk over Transfers)
//   - every source of every transfer reaches its sink over existing links,
//     possibly through multiplexers and junctions (see FindRoute;
//     concatenations are checked per contributing source); each operand
//     reaches the unit port the design's orientation names (Operand)
//   - no multiplexer is asked for two ways in one step
func (d *Design) Validate() (Control, error) {
	if err := d.validateStructure(); err != nil {
		return nil, err
	}
	if d.Trace == nil {
		return nil, nil
	}
	if err := d.validateBindings(); err != nil {
		return nil, err
	}
	return d.deriveControl()
}

func (d *Design) validateStructure() error {
	for _, r := range d.Registers {
		if r.Width <= 0 {
			return fmt.Errorf("rtl: register %s has width %d", r.Name, r.Width)
		}
	}
	for _, m := range d.Memories {
		if m.Width <= 0 || m.Words < 1 {
			return fmt.Errorf("rtl: memory %s malformed (%d words of %d bits)", m.Name, m.Words, m.Width)
		}
	}
	for _, u := range d.Units {
		if u.Width <= 0 {
			return fmt.Errorf("rtl: unit %s has width %d", u.Name, u.Width)
		}
		if len(u.Fns) == 0 {
			return fmt.Errorf("rtl: unit %s implements no functions", u.Name)
		}
	}
	for _, m := range d.Muxes {
		if m.Inputs < 2 {
			return fmt.Errorf("rtl: mux %s has %d ways", m.Name, m.Inputs)
		}
		if m.Width <= 0 {
			return fmt.Errorf("rtl: mux %s has width %d", m.Name, m.Width)
		}
	}

	for _, j := range d.Junctions {
		if j.Inputs < 2 {
			return fmt.Errorf("rtl: junction %s has %d ways", j.Name, j.Inputs)
		}
		if j.Width <= 0 {
			return fmt.Errorf("rtl: junction %s has width %d", j.Name, j.Width)
		}
	}

	present := map[any]bool{}
	for _, r := range d.Registers {
		present[r] = true
	}
	for _, m := range d.Memories {
		present[m] = true
	}
	for _, p := range d.Ports {
		present[p] = true
	}
	for _, u := range d.Units {
		present[u] = true
	}
	for _, m := range d.Muxes {
		present[m] = true
	}
	for _, j := range d.Junctions {
		present[j] = true
	}
	for _, c := range d.Consts {
		present[c] = true
	}

	inCount := map[Endpoint]int{}
	muxOutUsed := map[*Mux]bool{}
	junctionOutUsed := map[*Junction]bool{}
	for _, l := range d.Links {
		if l.Width <= 0 {
			return fmt.Errorf("rtl: %s has width %d", l, l.Width)
		}
		for _, ep := range []Endpoint{l.From, l.To} {
			if !present[ep.Comp] {
				return fmt.Errorf("rtl: %s references a component not in the design", l)
			}
			if err := checkEndpointKind(ep); err != nil {
				return fmt.Errorf("rtl: %s: %v", l, err)
			}
		}
		if !l.From.Kind.IsSource() {
			return fmt.Errorf("rtl: %s: from-endpoint is not a source", l)
		}
		if l.To.Kind.IsSource() {
			return fmt.Errorf("rtl: %s: to-endpoint is not a sink", l)
		}
		if l.Width > l.From.Width() {
			return fmt.Errorf("rtl: %s: wider than its source (%d > %d)", l, l.Width, l.From.Width())
		}
		if l.Width > l.To.Width() {
			return fmt.Errorf("rtl: %s: wider than its sink (%d > %d)", l, l.Width, l.To.Width())
		}
		inCount[l.To]++
		if l.From.Kind == EPMuxOut {
			muxOutUsed[l.From.Comp.(*Mux)] = true
		}
		if l.From.Kind == EPJunctionOut {
			junctionOutUsed[l.From.Comp.(*Junction)] = true
		}
	}
	for _, l := range d.Links {
		if n := inCount[l.To]; n > 1 {
			return fmt.Errorf("rtl: sink %s fed by %d links; sharing requires a mux", l.To, n)
		}
	}
	for _, m := range d.Muxes {
		for way := 0; way < m.Inputs; way++ {
			if inCount[Endpoint{Kind: EPMuxIn, Comp: m, Index: way}] != 1 {
				return fmt.Errorf("rtl: mux %s way %d not fed exactly once", m.Name, way)
			}
		}
		if !muxOutUsed[m] {
			return fmt.Errorf("rtl: mux %s output unused", m.Name)
		}
	}
	for _, j := range d.Junctions {
		for way := 0; way < j.Inputs; way++ {
			if inCount[Endpoint{Kind: EPJunctionIn, Comp: j, Index: way}] != 1 {
				return fmt.Errorf("rtl: junction %s way %d not fed exactly once", j.Name, way)
			}
		}
		if !junctionOutUsed[j] {
			return fmt.Errorf("rtl: junction %s output unused", j.Name)
		}
	}
	return nil
}

func checkEndpointKind(ep Endpoint) error {
	ok := false
	switch ep.Comp.(type) {
	case *Register:
		ok = ep.Kind == EPRegIn || ep.Kind == EPRegOut
	case *Memory:
		ok = ep.Kind == EPMemAddr || ep.Kind == EPMemDataIn || ep.Kind == EPMemDataOut
	case *Unit:
		ok = ep.Kind == EPUnitIn || ep.Kind == EPUnitOut
		if ep.Kind == EPUnitIn && (ep.Index < 0 || ep.Index > 1) {
			return fmt.Errorf("unit operand index %d out of range", ep.Index)
		}
	case *Mux:
		ok = ep.Kind == EPMuxIn || ep.Kind == EPMuxOut
		if ep.Kind == EPMuxIn {
			m := ep.Comp.(*Mux)
			if ep.Index < 0 || ep.Index >= m.Inputs {
				return fmt.Errorf("mux way %d out of range (0..%d)", ep.Index, m.Inputs-1)
			}
		}
	case *Junction:
		ok = ep.Kind == EPJunctionIn || ep.Kind == EPJunctionOut
		if ep.Kind == EPJunctionIn {
			j := ep.Comp.(*Junction)
			if ep.Index < 0 || ep.Index >= j.Inputs {
				return fmt.Errorf("junction way %d out of range (0..%d)", ep.Index, j.Inputs-1)
			}
		}
	case *Port:
		p := ep.Comp.(*Port)
		ok = (ep.Kind == EPPortIn && p.In) || (ep.Kind == EPPortOut && !p.In)
	case *Constant:
		ok = ep.Kind == EPConst
	}
	if !ok {
		return fmt.Errorf("endpoint kind %s inconsistent with component %T", ep.Kind, ep.Comp)
	}
	return nil
}

func (d *Design) validateBindings() error {
	ops := d.Trace.AllOps()

	// Carrier bindings.
	used := map[*vt.Carrier]bool{}
	for _, op := range ops {
		if op.Carrier != nil {
			used[op.Carrier] = true
		}
	}
	for _, car := range d.Trace.Carriers {
		if !used[car] {
			continue
		}
		switch car.Kind {
		case vt.CarReg:
			r := d.CarrierReg[car]
			if r == nil {
				return fmt.Errorf("rtl: carrier %s not bound to a register", car.Name)
			}
			if r.Width < car.Width {
				return fmt.Errorf("rtl: carrier %s (%d bits) bound to narrower %s", car.Name, car.Width, r)
			}
		case vt.CarMem:
			m := d.CarrierMem[car]
			if m == nil {
				return fmt.Errorf("rtl: memory carrier %s not bound", car.Name)
			}
			if m.Width < car.Width || m.Words < car.Words {
				return fmt.Errorf("rtl: memory carrier %s bound to undersized %s", car.Name, m)
			}
		default:
			p := d.CarrierPort[car]
			if p == nil {
				return fmt.Errorf("rtl: port carrier %s not bound", car.Name)
			}
			if p.Width < car.Width {
				return fmt.Errorf("rtl: port carrier %s bound to narrower %s", car.Name, p)
			}
			if p.In != (car.Kind == vt.CarPortIn) {
				return fmt.Errorf("rtl: port carrier %s direction mismatch", car.Name)
			}
		}
	}

	// Step order and schedule bindings.
	for _, s := range d.States {
		if !d.listed(s) {
			return fmt.Errorf("rtl: %s out of index order in its body's step list", s)
		}
		for i, op := range s.Ops {
			if d.OpState[op] != s {
				return fmt.Errorf("rtl: op %s listed in %s but bound elsewhere", op, s)
			}
			if i > 0 && s.Ops[i-1].Seq >= op.Seq {
				return fmt.Errorf("rtl: %s lists op %s after %s, out of trace order", s, op, s.Ops[i-1])
			}
		}
	}
	for _, op := range ops {
		s := d.OpState[op]
		if s == nil {
			return fmt.Errorf("rtl: op %s not scheduled", op)
		}
		if s.Body != op.Body.Name {
			return fmt.Errorf("rtl: op %s scheduled into foreign body %s", op, s.Body)
		}
		if !d.listed(s) {
			return fmt.Errorf("rtl: op %s bound to unlisted state", op)
		}
		for _, dep := range op.Deps {
			ds := d.OpState[dep]
			if ds == nil {
				return fmt.Errorf("rtl: dependence of %s unscheduled", op)
			}
			if ds.Index > s.Index || (sched.StrictAfter(dep) && ds.Index >= s.Index) {
				return fmt.Errorf("rtl: op %s in step %d violates dependence on %s in step %d", op, s.Index, dep, ds.Index)
			}
		}
	}

	// Unit bindings and per-step resource conflicts.
	type stateUnit struct {
		s *State
		u *Unit
	}
	unitBusy := map[stateUnit]*vt.Op{}
	type stateMem struct {
		s *State
		m *vt.Carrier
	}
	memBusy := map[stateMem]*vt.Op{}
	type stateRegW struct {
		s *State
		c *vt.Carrier
	}
	regWrites := map[stateRegW][]*vt.Op{}

	for _, op := range ops {
		s := d.OpState[op]
		u := d.OpUnit[op]
		if op.Kind.IsCompute() {
			if u == nil {
				return fmt.Errorf("rtl: compute op %s not bound to a unit", op)
			}
			if !u.Has(op.Kind) {
				return fmt.Errorf("rtl: op %s bound to %s which lacks %s", op, u, op.Kind)
			}
			if need := op.UnitWidth(); u.Width < need {
				return fmt.Errorf("rtl: op %s needs %d bits but %s is narrower", op, need, u)
			}
			key := stateUnit{s, u}
			if prev, busy := unitBusy[key]; busy {
				return fmt.Errorf("rtl: unit %s executes both %s and %s in one step", u.Name, prev, op)
			}
			unitBusy[key] = op
		} else if u != nil {
			return fmt.Errorf("rtl: non-compute op %s bound to unit %s", op, u.Name)
		}
		switch op.Kind {
		case vt.OpMemRead, vt.OpMemWrite:
			key := stateMem{s, op.Carrier}
			if prev, busy := memBusy[key]; busy {
				return fmt.Errorf("rtl: memory %s accessed twice in one step (%s, %s)", op.Carrier.Name, prev, op)
			}
			memBusy[key] = op
		case vt.OpWrite:
			key := stateRegW{s, op.Carrier}
			if prev := regWrites[key]; len(prev) > 0 {
				return fmt.Errorf("rtl: carrier %s written twice in one step (%s, %s)", op.Carrier.Name, prev[0], op)
			}
			regWrites[key] = append(regWrites[key], op)
		}
	}

	// Cross-step values must live in registers.
	for _, op := range ops {
		v := op.Result
		if v == nil || v.IsConst || op.Kind == vt.OpRead {
			continue
		}
		ps := d.OpState[op]
		for _, use := range v.Uses {
			us := d.OpState[use]
			if us != nil && ps != nil && us != ps {
				if d.ValueReg[v] == nil {
					return fmt.Errorf("rtl: value %s crosses steps (%d -> %d) without a holding register", v, ps.Index, us.Index)
				}
				if d.ValueReg[v].Width < v.Width {
					return fmt.Errorf("rtl: value %s held in narrower register %s", v, d.ValueReg[v])
				}
			}
		}
	}
	return nil
}
