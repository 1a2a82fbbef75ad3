package rtl

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/vt"
)

// Controller synthesis: the DAA's control allocation produced, besides the
// step sequence, the control signals each step asserts — register load
// enables, multiplexer selects, unit function selects, and memory write
// strobes. Validate derives exactly those signals from the bindings and
// the interconnect in its one walk over the transfers, so every design
// that validates has a controller: a transfer with no route to its sink,
// or one multiplexer asked for two ways in one step, fails validation.

// StateControl lists the signals asserted during one control step.
type StateControl struct {
	State *State
	// Loads are the registers written at end of step (carrier writes and
	// value parking).
	Loads []*Register
	// PortWrites are output ports driven this step.
	PortWrites []*Port
	// MemWrites are memories strobed this step.
	MemWrites []*Memory
	// MuxSel maps each multiplexer used this step to the selected way;
	// nil when the step selects none.
	MuxSel map[*Mux]int
	// UnitFn maps each active unit to the function it performs this step;
	// nil when no unit is active.
	UnitFn map[*Unit]vt.OpKind
}

// Signals reports the number of distinct control assertions of the step.
func (sc *StateControl) Signals() int {
	return len(sc.Loads) + len(sc.PortWrites) + len(sc.MemWrites) + len(sc.MuxSel) + len(sc.UnitFn)
}

// Control is a design's controller: one StateControl per state, in the
// order of Design.States. Validate derives it.
type Control []*StateControl

// ControlStats summarizes the controller for reporting.
type ControlStats struct {
	States     int
	Signals    int // total control assertions across all states
	MaxSignals int // widest step
}

// Stats summarizes the controller.
func (c Control) Stats() ControlStats {
	cs := ControlStats{States: len(c)}
	for _, sc := range c {
		n := sc.Signals()
		cs.Signals += n
		if n > cs.MaxSignals {
			cs.MaxSignals = n
		}
	}
	return cs
}

// Write renders the controller as text, one line per state.
func (c Control) Write(w io.Writer) error {
	for _, sc := range c {
		var parts []string
		for u, fn := range sc.UnitFn {
			parts = append(parts, fmt.Sprintf("%s=%s", u.Name, fn))
		}
		for m, way := range sc.MuxSel {
			parts = append(parts, fmt.Sprintf("%s<-%d", m.Name, way))
		}
		sort.Strings(parts)
		for _, r := range sc.Loads {
			parts = append(parts, "load "+r.Name)
		}
		for _, p := range sc.PortWrites {
			parts = append(parts, "drive "+p.Name)
		}
		for _, mem := range sc.MemWrites {
			parts = append(parts, "write "+mem.Name)
		}
		line := fmt.Sprintf("%-24s %s", fmt.Sprintf("%s/%d:", sc.State.Body, sc.State.Index),
			strings.Join(parts, " "))
		if _, err := io.WriteString(w, strings.TrimRight(line, " ")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// deriveControl walks every transfer once — each operator's OpTransfers
// in trace order, then the parking transfers — checking that each source
// of the value reaches the sink and recording the signals that get it
// there. Each operand must reach the unit port the design's orientation
// names (Operand): the commutativity rule records a swap there when it
// swaps the wiring, so wiring that disagrees with it is a defect, not a
// second orientation.
// It runs after validateBindings, which guarantees that every operator is
// scheduled into a listed state and that no unit runs two operators in one
// step.
func (d *Design) deriveControl() (Control, error) {
	rows := make([]StateControl, len(d.States))
	ctl := make(Control, len(d.States))
	of := make(map[*State]*StateControl, len(d.States))
	for i, s := range d.States {
		rows[i].State = s
		ctl[i] = &rows[i]
		of[s] = &rows[i]
	}
	var ts []Transfer
	for _, b := range d.Trace.Bodies {
		for _, op := range b.Ops {
			var err error
			if ts, err = d.appendOpTransfers(ts[:0], op); err != nil {
				return nil, err
			}
			sc := of[d.OpState[op]]
			for _, t := range ts {
				if err := d.controlTransfer(sc, t); err != nil {
					return nil, fmt.Errorf("rtl: op %s: %v", op, err)
				}
			}
			if u := d.OpUnit[op]; u != nil {
				if sc.UnitFn == nil {
					sc.UnitFn = map[*Unit]vt.OpKind{}
				}
				sc.UnitFn[u] = op.Kind
			}
		}
	}
	for _, v := range d.ParkedValues() {
		t := d.ParkTransfer(v)
		sc := of[t.State]
		if sc == nil {
			return nil, fmt.Errorf("rtl: parking %s: producer not scheduled", v)
		}
		if err := d.controlTransfer(sc, t); err != nil {
			return nil, fmt.Errorf("rtl: parking %s: %v", v, err)
		}
	}
	for _, sc := range ctl {
		slices.SortFunc(sc.Loads, func(a, b *Register) int { return a.ID - b.ID })
		sc.Loads = slices.Compact(sc.Loads)
		slices.SortFunc(sc.PortWrites, func(a, b *Port) int { return a.ID - b.ID })
		sc.PortWrites = slices.Compact(sc.PortWrites)
		slices.SortFunc(sc.MemWrites, func(a, b *Memory) int { return a.ID - b.ID })
		sc.MemWrites = slices.Compact(sc.MemWrites)
	}
	return ctl, nil
}

// controlTransfer records the signals transfer t asserts in its step: the
// multiplexer selects along the first route (in link order) from each
// source of the value to the sink, then the sink's load, drive or write
// strobe. Junctions pass through without asserting control (they are
// wiring).
func (d *Design) controlTransfer(sc *StateControl, t Transfer) error {
	srcs, err := d.ValueSources(t.Val, t.State)
	if err != nil {
		return err
	}
	for _, src := range srcs {
		route := d.FindRoute(src, t.Dst, true)
		if route == nil {
			return fmt.Errorf("no path from %s to %s", src, t.Dst)
		}
		for _, l := range route {
			if l.To.Kind != EPMuxIn {
				continue
			}
			m := l.To.Comp.(*Mux)
			if way, ok := sc.MuxSel[m]; ok && way != l.To.Index {
				return fmt.Errorf("mux %s asked for ways %d and %d in %s", m.Name, way, l.To.Index, sc.State)
			}
			if sc.MuxSel == nil {
				sc.MuxSel = map[*Mux]int{}
			}
			sc.MuxSel[m] = l.To.Index
		}
	}
	switch t.Dst.Kind {
	case EPRegIn:
		sc.Loads = append(sc.Loads, t.Dst.Comp.(*Register))
	case EPPortOut:
		sc.PortWrites = append(sc.PortWrites, t.Dst.Comp.(*Port))
	case EPMemDataIn:
		sc.MemWrites = append(sc.MemWrites, t.Dst.Comp.(*Memory))
	}
	return nil
}
