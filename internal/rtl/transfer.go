package rtl

import (
	"fmt"
	"sort"

	"repro/internal/vt"
)

// Transfer is one datapath movement the design must realize: a value
// arriving at a sink endpoint during a control step. Operand transfers list
// their consuming operator; parking transfers (Op == nil) move a value into
// its holding register at the producer's step.
//
// Link accounting follows the paper's register-transfer diagrams: a link is
// an endpoint-to-endpoint connection; bit selection and concatenation are
// free wiring attached to the link, so two different slices of one register
// into the same port share a single counted link.
type Transfer struct {
	Op    *vt.Op // consuming operator; nil for parking transfers
	Val   *vt.Value
	State *State
	Dst   Endpoint
}

// OpTransfers lists the operand transfers of one operator: each value it
// consumes and the sink that value must reach during the operator's step.
// It is the one mapping from operator kind to operand sinks. Reads,
// constants, wiring and control operators move no data; the selector
// values of SELECT/LOOP operators feed the controller, which the paper
// costs as control logic rather than datapath links.
//
// OpTransfers is small enough to inline, so the returned slice stays on
// the caller's stack unless the caller keeps it.
func (d *Design) OpTransfers(op *vt.Op) ([]Transfer, error) {
	return d.appendOpTransfers(make([]Transfer, 0, 2), op)
}

// appendOpTransfers appends the operand transfers of op to out.
func (d *Design) appendOpTransfers(out []Transfer, op *vt.Op) ([]Transfer, error) {
	s := d.OpState[op]
	to := func(v *vt.Value, dst Endpoint) {
		out = append(out, Transfer{Op: op, Val: v, State: s, Dst: dst})
	}
	switch {
	case op.Kind.IsCompute():
		u := d.OpUnit[op]
		if u == nil {
			return nil, fmt.Errorf("rtl: compute op %s unbound", op)
		}
		for i := range op.Args {
			to(d.Operand(op, i), Endpoint{Kind: EPUnitIn, Comp: u, Index: i})
		}
	case op.Kind == vt.OpWrite:
		car := op.Carrier
		if car.Kind == vt.CarPortOut {
			p := d.CarrierPort[car]
			if p == nil {
				return nil, fmt.Errorf("rtl: port carrier %s unbound", car.Name)
			}
			to(op.Args[0], Endpoint{Kind: EPPortOut, Comp: p})
		} else {
			r := d.CarrierReg[car]
			if r == nil {
				return nil, fmt.Errorf("rtl: carrier %s unbound", car.Name)
			}
			to(op.Args[0], Endpoint{Kind: EPRegIn, Comp: r})
		}
	case op.Kind == vt.OpMemRead || op.Kind == vt.OpMemWrite:
		m := d.CarrierMem[op.Carrier]
		if m == nil {
			return nil, fmt.Errorf("rtl: memory carrier %s unbound", op.Carrier.Name)
		}
		to(op.Args[0], Endpoint{Kind: EPMemAddr, Comp: m})
		if op.Kind == vt.OpMemWrite {
			to(op.Args[1], Endpoint{Kind: EPMemDataIn, Comp: m})
		}
	}
	return out, nil
}

// ParkTransfer is the transfer that moves v into its holding register at
// the end of its producer's step.
func (d *Design) ParkTransfer(v *vt.Value) Transfer {
	return Transfer{Val: v, State: d.OpState[v.Def], Dst: Endpoint{Kind: EPRegIn, Comp: d.ValueReg[v]}}
}

// ParkedValues returns the values held in holding registers, in value-ID
// order.
func (d *Design) ParkedValues() []*vt.Value {
	vals := make([]*vt.Value, 0, len(d.ValueReg))
	for v := range d.ValueReg {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].ID < vals[j].ID })
	return vals
}

// Transfers enumerates every datapath transfer implied by the trace under
// the current bindings: each operator's OpTransfers in trace order, then
// the parking transfers in value-ID order.
func (d *Design) Transfers() ([]Transfer, error) {
	var out []Transfer
	for _, op := range d.Trace.AllOps() {
		var err error
		if out, err = d.appendOpTransfers(out, op); err != nil {
			return nil, err
		}
	}
	for _, v := range d.ParkedValues() {
		out = append(out, d.ParkTransfer(v))
	}
	return out, nil
}

// ConstLeaves returns the constant values reachable from v through wiring
// operators (slices and concatenations); these need hardwired constant
// sources in the design.
func ConstLeaves(v *vt.Value) []*vt.Value {
	if v.IsConst {
		return []*vt.Value{v}
	}
	if v.Def == nil {
		return nil
	}
	switch v.Def.Kind {
	case vt.OpSlice:
		return ConstLeaves(v.Def.Args[0])
	case vt.OpConcat:
		return append(ConstLeaves(v.Def.Args[0]), ConstLeaves(v.Def.Args[1])...)
	}
	return nil
}
