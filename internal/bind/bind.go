// Package bind provides the policy-free construction steps shared by every
// allocator in this reproduction — the knowledge-based DAA in internal/core
// and the baseline allocators in internal/alloc:
//
//   - Carriers binds ISPS carriers one-to-one to registers, memories, and
//     ports.
//   - ApplySchedule turns per-body schedules into control steps and binds
//     every operator to its step.
//   - CrossingValues identifies the intermediate values that outlive their
//     producing step and therefore need holding registers.
//   - Realize wires datapath transfers (rtl.Transfer): it allocates the
//     hardwired constants and concatenation junctions a value needs, then
//     routes each of its sources with links, growing or inserting
//     multiplexers wherever a sink is shared. Wire realizes every transfer
//     of a design at once.
//
// What distinguishes the allocators is only policy: which operators share
// functional units, which values share holding registers, and, in the DAA,
// the order of transfers and the orientation of commutative operands.
// Everything else — which sink each operand feeds (rtl.Design.OpTransfers),
// how a source reaches a sink (rtl.Design.FindRoute), and the honest accounting
// of links and muxes — is common to all of them.
package bind

import (
	"fmt"
	"sort"

	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/vt"
)

// Carriers binds every carrier used by the trace to a dedicated hardware
// element of the same name.
func Carriers(d *rtl.Design) {
	used := map[*vt.Carrier]bool{}
	for _, op := range d.Trace.AllOps() {
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
			d.CarrierReg[car] = d.AddRegister(car.Name, car.Width)
		case vt.CarMem:
			d.CarrierMem[car] = d.AddMemory(car.Name, car.Width, car.Words)
		case vt.CarPortIn:
			d.CarrierPort[car] = d.AddPort(car.Name, car.Width, true)
		case vt.CarPortOut:
			d.CarrierPort[car] = d.AddPort(car.Name, car.Width, false)
		}
	}
}

// ApplySchedule creates one control step per schedule slot of every body
// (bodies in trace order) and binds each operator to its step.
func ApplySchedule(d *rtl.Design, scheds map[*vt.Body]*sched.Schedule) {
	for _, body := range d.Trace.Bodies {
		s := scheds[body]
		if s == nil {
			continue
		}
		for i, ops := range s.Steps {
			st := d.AddState(body.Name, i)
			st.Ops = append(st.Ops, ops...)
			for _, op := range ops {
				d.OpState[op] = st
			}
		}
	}
}

// CrossingValues returns, in deterministic order, every intermediate value
// that is consumed in a control step other than the one that produced it
// and therefore must be parked in a holding register. Constants and plain
// register reads persist on their own and are excluded.
func CrossingValues(d *rtl.Design) []*vt.Value {
	var out []*vt.Value
	for _, op := range d.Trace.AllOps() {
		v := op.Result
		if v == nil || v.IsConst || op.Kind == vt.OpRead {
			continue
		}
		ps := d.OpState[op]
		for _, use := range v.Uses {
			if d.OpState[use] != ps {
				out = append(out, v)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lifetime returns the step interval a crossing value occupies within its
// body: it is parked at the end of step lo (its producer's step) and last
// read during step hi. A register track may hold a second value whose lo
// is ≥ this value's hi, because parking happens at end-of-step.
func Lifetime(d *rtl.Design, v *vt.Value) (lo, hi int) {
	lo = d.OpState[v.Def].Index
	hi = lo
	for _, use := range v.Uses {
		if s := d.OpState[use]; s != nil && s.Index > hi {
			hi = s.Index
		}
	}
	return lo, hi
}

// Wire realizes every transfer implied by the current bindings, in the
// order of rtl.Design.Transfers.
func Wire(d *rtl.Design) error {
	ts, err := d.Transfers()
	if err != nil {
		return err
	}
	return Realize(d, ts...)
}

// Realize wires the transfers in order: every source of each transfer's
// value reaches its sink once Realize returns.
func Realize(d *rtl.Design, ts ...rtl.Transfer) error {
	for _, t := range ts {
		srcs, err := Sources(d, t.Val, t.State)
		if err != nil {
			return fmt.Errorf("bind: %v", err)
		}
		for _, src := range srcs {
			Route(d, src, t.Dst, min(t.Val.Width, src.Width(), t.Dst.Width()))
		}
	}
	return nil
}

// Sources prepares the sources of v for a consumer in state s: it
// allocates the hardwired constants and concatenation junctions v needs,
// and returns the endpoints that supply v (rtl.Design.ValueSources).
func Sources(d *rtl.Design, v *vt.Value, s *rtl.State) ([]rtl.Endpoint, error) {
	for _, leaf := range rtl.ConstLeaves(v) {
		d.AddConst(leaf.ConstVal, leaf.Width)
	}
	if err := EnsureJunctions(d, v, s); err != nil {
		return nil, err
	}
	return d.ValueSources(v, s)
}

// EnsureJunctions allocates the wiring junction of every concatenation
// reachable from v (through slices and nested concatenations) for a
// consumer in state s, and wires each half into its field way. A
// concatenation is pure wiring: the junction costs no gates and asserts
// no control, but keeping it a component preserves the one-driver-per-
// sink invariant that makes multiplexer accounting honest.
func EnsureJunctions(d *rtl.Design, v *vt.Value, s *rtl.State) error {
	def := v.Def
	if def == nil || v.IsConst {
		return nil
	}
	// Values crossing steps are read from their holding register; their
	// junctions were built when the value was parked.
	if s != nil && d.OpState[def] != s && def.Kind != vt.OpRead {
		return nil
	}
	switch def.Kind {
	case vt.OpSlice:
		return EnsureJunctions(d, def.Args[0], s)
	case vt.OpConcat:
		if d.OpJunction[def] != nil {
			return nil
		}
		js := d.OpState[def]
		for _, a := range def.Args {
			if err := EnsureJunctions(d, a, js); err != nil {
				return err
			}
			for _, leaf := range rtl.ConstLeaves(a) {
				d.AddConst(leaf.ConstVal, leaf.Width)
			}
		}
		j := d.AddJunction(fmt.Sprintf("j%d", len(d.Junctions)), v.Width, len(def.Args))
		d.OpJunction[def] = j
		for i, a := range def.Args {
			srcs, err := d.ValueSources(a, js)
			if err != nil {
				return err
			}
			dst := rtl.Endpoint{Kind: rtl.EPJunctionIn, Comp: j, Index: i}
			for _, src := range srcs {
				Route(d, src, dst, min(a.Width, src.Width()))
			}
		}
	}
	return nil
}

// Route ensures a path of width w from src to dst. It reuses and widens
// an existing route through multiplexers; a route through a junction
// carries a concatenation, not src alone, so it does not count. Otherwise
// Route links src to dst directly, extends the mux already driving dst
// with a new way, or inserts a fresh two-way mux when a directly-driven
// sink gains a second source.
func Route(d *rtl.Design, src, dst rtl.Endpoint, w int) {
	if route := d.FindRoute(src, dst, false); route != nil {
		for _, l := range route {
			if l.Width < w {
				l.Width = w
			}
		}
		return
	}
	var incoming *rtl.Link
	for _, l := range d.Links {
		if l.To == dst {
			incoming = l
			break
		}
	}
	if incoming == nil {
		d.AddLink(src, dst, w)
		return
	}
	if incoming.From.Kind == rtl.EPMuxOut {
		m := incoming.From.Comp.(*rtl.Mux)
		m.Inputs++
		d.AddLink(src, rtl.Endpoint{Kind: rtl.EPMuxIn, Comp: m, Index: m.Inputs - 1}, w)
		if incoming.Width < w {
			incoming.Width = w
		}
		return
	}
	// A second source arrives at a directly-driven sink: insert a mux.
	m := d.AddMux(fmt.Sprintf("mux%d", len(d.Muxes)), dst.Width(), 2)
	old := incoming
	d.RemoveLink(old)
	d.AddLink(old.From, rtl.Endpoint{Kind: rtl.EPMuxIn, Comp: m, Index: 0}, old.Width)
	d.AddLink(src, rtl.Endpoint{Kind: rtl.EPMuxIn, Comp: m, Index: 1}, w)
	outW := old.Width
	if w > outW {
		outW = w
	}
	d.AddLink(rtl.Endpoint{Kind: rtl.EPMuxOut, Comp: m}, dst, outW)
}
