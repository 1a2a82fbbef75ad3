package rtl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vt"
)

// Controller synthesis: the DAA's control allocation produced, besides the
// step sequence, the control signals each step asserts — register load
// enables, multiplexer selects, unit function selects, and memory write
// strobes. ControlTable derives exactly those signals from the bindings
// and the interconnect, and doubles as a deeper validation pass: deriving
// a contradictory multiplexer selection (one mux asked for two ways in one
// step) is a real resource conflict.

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
	// MuxSel maps each multiplexer used this step to the selected way.
	MuxSel map[*Mux]int
	// UnitFn maps each active unit to the function it performs this step.
	UnitFn map[*Unit]vt.OpKind
}

// Signals reports the number of distinct control assertions of the step.
func (sc *StateControl) Signals() int {
	return len(sc.Loads) + len(sc.PortWrites) + len(sc.MemWrites) + len(sc.MuxSel) + len(sc.UnitFn)
}

// ControlTable derives the control signals of every state. It fails if the
// datapath would need one multiplexer in two positions during a single
// step — a conflict the structural validator cannot see.
func (d *Design) ControlTable() ([]*StateControl, error) {
	byState := map[*State]*StateControl{}
	get := func(s *State) *StateControl {
		sc := byState[s]
		if sc == nil {
			sc = &StateControl{State: s, MuxSel: map[*Mux]int{}, UnitFn: map[*Unit]vt.OpKind{}}
			byState[s] = sc
		}
		return sc
	}

	transfers, err := d.Transfers()
	if err != nil {
		return nil, err
	}
	loads := map[*State]map[*Register]bool{}
	portW := map[*State]map[*Port]bool{}
	memW := map[*State]map[*Memory]bool{}

	for _, t := range transfers {
		sc := get(t.State)
		srcs, err := d.ValueSources(t.Val, t.State)
		if err != nil {
			return nil, err
		}
		for _, src := range srcs {
			if err := d.selectRoute(sc, src, t.Dst); err != nil {
				return nil, err
			}
		}
		switch t.Dst.Kind {
		case EPRegIn:
			if loads[t.State] == nil {
				loads[t.State] = map[*Register]bool{}
			}
			loads[t.State][t.Dst.Comp.(*Register)] = true
		case EPPortOut:
			if portW[t.State] == nil {
				portW[t.State] = map[*Port]bool{}
			}
			portW[t.State][t.Dst.Comp.(*Port)] = true
		case EPMemDataIn:
			if memW[t.State] == nil {
				memW[t.State] = map[*Memory]bool{}
			}
			memW[t.State][t.Dst.Comp.(*Memory)] = true
		}
	}

	for _, op := range d.Trace.AllOps() {
		u := d.OpUnit[op]
		if u == nil {
			continue
		}
		s := d.OpState[op]
		sc := get(s)
		if prev, ok := sc.UnitFn[u]; ok && prev != op.Kind {
			return nil, fmt.Errorf("rtl: unit %s asked for %s and %s in %s", u.Name, prev, op.Kind, s)
		}
		sc.UnitFn[u] = op.Kind
	}

	var out []*StateControl
	for _, s := range d.States {
		sc := get(s)
		for r := range loads[s] {
			sc.Loads = append(sc.Loads, r)
		}
		sort.Slice(sc.Loads, func(i, j int) bool { return sc.Loads[i].ID < sc.Loads[j].ID })
		for p := range portW[s] {
			sc.PortWrites = append(sc.PortWrites, p)
		}
		sort.Slice(sc.PortWrites, func(i, j int) bool { return sc.PortWrites[i].ID < sc.PortWrites[j].ID })
		for m := range memW[s] {
			sc.MemWrites = append(sc.MemWrites, m)
		}
		sort.Slice(sc.MemWrites, func(i, j int) bool { return sc.MemWrites[i].ID < sc.MemWrites[j].ID })
		out = append(out, sc)
	}
	return out, nil
}

// selectRoute records the mux selections along the route from src to dst,
// rejecting contradictory selections within one step. Junctions pass
// through without asserting control (they are wiring).
func (d *Design) selectRoute(sc *StateControl, src, dst Endpoint) error {
	route := d.FindRoute(src, dst, true)
	if route == nil {
		return fmt.Errorf("rtl: no route from %s to %s while deriving control", src, dst)
	}
	for _, l := range route {
		if l.To.Kind != EPMuxIn {
			continue
		}
		m := l.To.Comp.(*Mux)
		if prev, ok := sc.MuxSel[m]; ok && prev != l.To.Index {
			return fmt.Errorf("rtl: mux %s asked for ways %d and %d in %s", m.Name, prev, l.To.Index, sc.State)
		}
		sc.MuxSel[m] = l.To.Index
	}
	return nil
}

// ControlStats summarizes the controller for reporting.
type ControlStats struct {
	States     int
	Signals    int // total control assertions across all states
	MaxSignals int // widest step
}

// ControlStats derives the controller summary.
func (d *Design) ControlStats() (ControlStats, error) {
	table, err := d.ControlTable()
	if err != nil {
		return ControlStats{}, err
	}
	cs := ControlStats{States: len(table)}
	for _, sc := range table {
		n := sc.Signals()
		cs.Signals += n
		if n > cs.MaxSignals {
			cs.MaxSignals = n
		}
	}
	return cs, nil
}

// WriteControlTable renders the controller as text, one line per state.
func (d *Design) WriteControlTable(w interface{ WriteString(string) (int, error) }) error {
	table, err := d.ControlTable()
	if err != nil {
		return err
	}
	for _, sc := range table {
		var parts []string
		for u, fn := range sc.UnitFn {
			parts = append(parts, fmt.Sprintf("%s=%s", u.Name, fn))
		}
		for m, way := range sc.MuxSel {
			parts = append(parts, fmt.Sprintf("%s<-%d", m.Name, way))
		}
		sort.Strings(parts)
		var names []string
		for _, r := range sc.Loads {
			names = append(names, "load "+r.Name)
		}
		for _, p := range sc.PortWrites {
			names = append(names, "drive "+p.Name)
		}
		for _, mem := range sc.MemWrites {
			names = append(names, "write "+mem.Name)
		}
		line := fmt.Sprintf("%-24s %s", fmt.Sprintf("%s/%d:", sc.State.Body, sc.State.Index),
			strings.Join(append(parts, names...), " "))
		if _, err := w.WriteString(strings.TrimRight(line, " ") + "\n"); err != nil {
			return err
		}
	}
	return nil
}
