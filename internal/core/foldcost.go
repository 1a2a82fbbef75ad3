package core

import (
	"repro/internal/cost"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// Cost-aware folding. The prototype's experts folded operators into ALUs
// only when the fold did not bloat the interconnect: merging two units
// whose operands come from different places trades a unit for multiplexer
// ways. foldSaves estimates both sides with the standard cost model and
// admits the fold only when it does not increase gate equivalents (ties
// fold: the experts preferred fewer operators).

var foldModel = cost.Default()

// portSources collects the distinct datapath sources feeding each operand
// port of a unit, over every operator bound to it.
func (s *synth) portSources(u *rtl.Unit) [2]map[rtl.Endpoint]bool {
	out := [2]map[rtl.Endpoint]bool{{}, {}}
	//daalint:allow detmap order-insensitive set build
	for op, uu := range s.d.OpUnit {
		if uu != u {
			continue
		}
		st := s.d.OpState[op]
		for i := 0; i < len(op.Args) && i < 2; i++ {
			srcs, err := s.d.ValueSources(s.d.Operand(op, i), st)
			if err != nil {
				continue
			}
			for _, e := range srcs {
				out[i][e] = true
			}
		}
	}
	return out
}

// foldSaves reports whether folding u2 into u1 does not increase the
// estimated gate-equivalent cost of the units plus their operand muxes by
// more than Options.FoldSlack gate equivalents (zero by default).
func (s *synth) foldSaves(u1, u2 *rtl.Unit) bool {
	s1 := s.portSources(u1)
	s2 := s.portSources(u2)
	before := foldModel.Unit(u1.Width, u1.Fns) + foldModel.Unit(u2.Width, u2.Fns)
	for i := 0; i < 2; i++ {
		before += foldModel.Mux(len(s1[i]), u1.Width) + foldModel.Mux(len(s2[i]), u2.Width)
	}
	width := u1.Width
	if u2.Width > width {
		width = u2.Width
	}
	fns := make(map[vt.OpKind]bool, len(u1.Fns)+len(u2.Fns))
	//daalint:allow detmap order-insensitive set union
	for k := range u1.Fns {
		fns[k] = true
	}
	//daalint:allow detmap order-insensitive set union
	for k := range u2.Fns {
		fns[k] = true
	}
	after := foldModel.Unit(width, fns)
	for i := 0; i < 2; i++ {
		union := make(map[rtl.Endpoint]bool, len(s1[i])+len(s2[i]))
		//daalint:allow detmap order-insensitive set union
		for e := range s1[i] {
			union[e] = true
		}
		//daalint:allow detmap order-insensitive set union
		for e := range s2[i] {
			union[e] = true
		}
		after += foldModel.Mux(len(union), width)
	}
	return after <= before+s.opt.FoldSlack
}
