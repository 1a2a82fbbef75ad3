// Package cost attaches technology-independent gate-equivalent weights to
// register-transfer designs, so allocations can be compared the way the
// DAA paper series compared them: by counting hardware, not by layout.
//
// The weights are classical gate-equivalent figures of the TTL/NMOS era
// (a master-slave flip-flop ≈ 8 gates, a full adder ≈ 12 gates per bit, a
// 2-way multiplexer ≈ 3 gates per bit). Absolute numbers are irrelevant to
// the experiments — only ratios between allocators matter — but the
// relative weighting of registers vs. operators vs. interconnect follows
// the same order the paper's expert designers used when judging designs.
package cost

import (
	"fmt"

	"repro/internal/rtl"
	"repro/internal/vt"
)

// Model holds gate-equivalent weights.
type Model struct {
	RegBit    float64               // per register bit
	MemBit    float64               // per memory bit (off-datapath, reported separately)
	MuxWayBit float64               // per multiplexer way per bit
	LinkBit   float64               // per link bit (wiring-area proxy)
	ConstBit  float64               // per hardwired constant bit
	PortBit   float64               // per external pin bit
	StateCost float64               // controller cost per control step
	FnBit     map[vt.OpKind]float64 // per unit function per bit
	// FnSelBit is the per-bit cost of each function beyond the first in a
	// multi-function unit. An ALU shares its datapath across functions (the
	// 74181 performed 32 functions in ~19 gate-equivalents per bit, not the
	// sum of its functions), so a unit costs its most expensive function
	// plus select logic per extra function.
	FnSelBit float64
}

// Default returns the standard model used by every experiment.
func Default() Model {
	return Model{
		RegBit:    8,
		MemBit:    1.5,
		MuxWayBit: 1.5,
		LinkBit:   0.3,
		ConstBit:  0.1,
		PortBit:   2,
		StateCost: 12,
		FnBit: map[vt.OpKind]float64{
			vt.OpAdd: 12, vt.OpSub: 14, vt.OpNeg: 9,
			vt.OpAnd: 2, vt.OpOr: 2, vt.OpXor: 3, vt.OpNot: 1,
			vt.OpEql: 4, vt.OpNeq: 4, vt.OpLss: 6, vt.OpLeq: 6,
			vt.OpGtr: 6, vt.OpGeq: 6, vt.OpTest: 1,
			vt.OpShl: 5, vt.OpShr: 5,
		},
		FnSelBit: 2,
	}
}

// Breakdown is a costed design, in gate equivalents.
type Breakdown struct {
	Registers float64
	Units     float64
	Muxes     float64
	Links     float64
	Consts    float64
	Ports     float64
	Control   float64
	Datapath  float64 // sum of the above (the paper's chip-quality figure)
	Memory    float64 // reported separately: the 6502's memory is external
}

func (b Breakdown) String() string {
	return fmt.Sprintf("datapath=%.0f (regs=%.0f units=%.0f muxes=%.0f links=%.0f control=%.0f) memory=%.0f",
		b.Datapath, b.Registers, b.Units, b.Muxes, b.Links, b.Control, b.Memory)
}

// Design costs a register-transfer design.
func (m Model) Design(d *rtl.Design) Breakdown {
	var b Breakdown
	for _, r := range d.Registers {
		b.Registers += m.RegBit * float64(r.Width)
	}
	for _, u := range d.Units {
		b.Units += m.Unit(u.Width, u.Fns)
	}
	for _, mx := range d.Muxes {
		b.Muxes += m.Mux(mx.Inputs, mx.Width)
	}
	for _, l := range d.Links {
		b.Links += m.LinkBit * float64(l.Width)
	}
	for _, c := range d.Consts {
		b.Consts += m.ConstBit * float64(c.Width)
	}
	for _, p := range d.Ports {
		b.Ports += m.PortBit * float64(p.Width)
	}
	b.Control = m.StateCost * float64(len(d.States))
	for _, mem := range d.Memories {
		b.Memory += m.MemBit * float64(mem.Width*mem.Words)
	}
	b.Datapath = b.Registers + b.Units + b.Muxes + b.Links + b.Consts + b.Ports + b.Control
	return b
}

// Unit prices a functional unit of the given width carrying fns: its most
// expensive function (4 per bit for a kind FnBit does not list) plus
// FnSelBit per bit for each further function.
func (m Model) Unit(width int, fns map[vt.OpKind]bool) float64 {
	maxFn := 0.0
	//daalint:allow detmap order-insensitive maximum
	for fn := range fns {
		w, ok := m.FnBit[fn]
		if !ok {
			w = 4
		}
		if w > maxFn {
			maxFn = w
		}
	}
	return (maxFn + m.FnSelBit*float64(len(fns)-1)) * float64(width)
}

// Mux prices a multiplexer of the given ways and width. One way or none
// is a plain wire and costs nothing; a validated design has no such mux.
func (m Model) Mux(ways, width int) float64 {
	if ways <= 1 {
		return 0
	}
	return m.MuxWayBit * float64(ways) * float64(width)
}

// Ratio returns cost(a)/cost(b) on the datapath figure.
func (m Model) Ratio(a, b *rtl.Design) float64 {
	db := m.Design(b).Datapath
	if db == 0 {
		return 0
	}
	return m.Design(a).Datapath / db
}
