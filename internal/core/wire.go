package core

import (
	"repro/internal/bind"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// Wiring policy shared by the datapath-allocation rules (phase 5) and the
// post-cleanup rewiring (phase 6). Which sink each operand feeds is
// rtl.Design.OpTransfers and realizing a transfer is the policy-free
// bind.Realize; the knowledge here is the commutativity rule: orient the
// operands of a commutative operator so the transfer reuses existing links
// instead of growing multiplexers.

// missingRoutes counts the sources of t's value that do not yet feed its
// sink.
func (s *synth) missingRoutes(t rtl.Transfer) int {
	srcs, err := bind.Sources(s.d, t.Val, t.State)
	if err != nil {
		return 1 // pessimistic; routing will surface the real error
	}
	n := 0
	for _, src := range srcs {
		if !s.d.Feeds(src, t.Dst) {
			n++
		}
	}
	return n
}

// commutes reports whether the commutativity rule may orient op: a
// two-operand commutative operator.
func commutes(op *vt.Op) bool { return len(op.Args) == 2 && op.Kind.IsCommutative() }

// orientSwap decides whether the operands of a two-argument commutative
// operator should swap: true when the swapped orientation reuses strictly
// more existing links — the DAA's commutativity rule. The design records
// the swap (rtl.Design.SwapOperands) through the orient-op effect, or
// through orientOp in the rewire pass; the value trace keeps its order.
func (s *synth) orientSwap(op *vt.Op) bool {
	if !commutes(op) {
		return false
	}
	ts, err := s.d.OpTransfers(op)
	if err != nil {
		return false // routing will surface the error
	}
	direct := s.missingRoutes(ts[0]) + s.missingRoutes(ts[1])
	ts[0].Dst, ts[1].Dst = ts[1].Dst, ts[0].Dst
	swapped := s.missingRoutes(ts[0]) + s.missingRoutes(ts[1])
	return swapped < direct
}

// orientOp applies orientSwap to the design (the rewire pass re-decides
// against the merged design, so decision and application stay together
// here).
func (s *synth) orientOp(op *vt.Op) {
	if s.orientSwap(op) {
		s.d.SwapOperands(op)
	}
}

// routeOp realizes the operand transfers of one data operator.
func (s *synth) routeOp(op *vt.Op) error {
	ts, err := s.d.OpTransfers(op)
	if err != nil {
		return err
	}
	return bind.Realize(s.d, ts...)
}

// rewire rebuilds the entire interconnect from the (possibly merged)
// bindings, re-applying the commutativity rule against the growing design.
// With provenance on, each rebuilt component is attributed to the firing
// that last routed (or, failing that, placed) the operator or value whose
// rebuild creates it.
func (s *synth) rewire() error {
	s.d.Links = nil
	s.d.Muxes = nil
	s.d.Consts = nil
	s.d.Junctions = nil
	s.d.OpJunction = map[*vt.Op]*rtl.Junction{}
	for _, op := range s.tr.AllOps() {
		if s.prov != nil {
			fr, ok := s.prov.opRoute[op]
			if !ok {
				fr = s.prov.opPlace[op]
			}
			s.prov.cur = fr
		}
		s.orientOp(op)
		if err := s.routeOp(op); err != nil {
			return err
		}
	}
	for _, v := range s.d.ParkedValues() {
		if s.prov != nil {
			s.prov.cur = s.prov.parkRoute[v]
		}
		if err := bind.Realize(s.d, s.d.ParkTransfer(v)); err != nil {
			return err
		}
	}
	if s.prov != nil {
		s.prov.cur = FiringRef{}
	}
	return nil
}
