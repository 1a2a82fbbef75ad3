package core

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// The provenance index answers the assistant's question: why does this
// component exist? It maps every component of the final design to the
// ordered rule firings that created, rebound, merged, or deleted into it,
// built from the effect journal plus creation attribution gathered while
// the effects applied. daa -explain, daad GET /v1/explain, and the exp
// provenance-depth table all render from this one structure.

// FiringRef names one firing: the phase it ran in and its 1-based
// sequence number within that phase's journal.
type FiringRef struct {
	Phase string
	Seq   int
}

// FiringNote is one provenance entry: a firing plus the journaled effect
// through which it touched the component.
type FiringNote struct {
	Phase  string
	Seq    int
	Rule   string
	Effect string
}

// ComponentHistory is the full firing history of one design component.
type ComponentHistory struct {
	Kind    string // journal ref kind: reg, mem, port, unit, state, const, mux, junction, link
	ID      int
	Label   string // the component's String()
	Firings []FiringNote
}

// Provenance indexes the final design's components by firing history, in
// deterministic component order.
type Provenance struct {
	Design     string
	Components []ComponentHistory
}

// provTrack gathers attribution while effects apply (recording and replay
// alike): which firing created each component, and the placement/routing
// firings used to attribute state and interconnect built by the
// deterministic post-phase hooks (finishControl, rewire).
type provTrack struct {
	cur       FiringRef
	created   map[prod.Ref]FiringRef
	opPlace   map[*vt.Op]FiringRef
	opRoute   map[*vt.Op]FiringRef
	parkRoute map[*vt.Value]FiringRef
}

func newProvTrack() *provTrack {
	return &provTrack{
		created:   map[prod.Ref]FiringRef{},
		opPlace:   map[*vt.Op]FiringRef{},
		opRoute:   map[*vt.Op]FiringRef{},
		parkRoute: map[*vt.Value]FiringRef{},
	}
}

// buildProvenance assembles the index from the journal and the tracker.
func buildProvenance(d *rtl.Design, j *Journal, pt *provTrack) *Provenance {
	// Rule-name lookup: seq is the 1-based position in the phase journal.
	ruleOf := map[FiringRef]string{}
	for _, pj := range j.Phases {
		for _, f := range pj.J.Firings {
			ruleOf[FiringRef{pj.Phase, f.Seq}] = f.Rule
		}
	}
	notes := map[prod.Ref][]FiringNote{}
	type noteKey struct {
		ref    prod.Ref
		fr     FiringRef
		effect string
	}
	seen := map[noteKey]bool{}
	add := func(ref prod.Ref, fr FiringRef, effect string) {
		if fr.Seq == 0 {
			return
		}
		key := noteKey{ref, fr, effect}
		if seen[key] {
			return
		}
		seen[key] = true
		notes[ref] = append(notes[ref], FiringNote{
			Phase:  fr.Phase,
			Seq:    fr.Seq,
			Rule:   ruleOf[fr],
			Effect: effect,
		})
	}
	// Every design component a Do effect mentions is touched by that
	// firing: allocation results, rebinding arguments, merge victims.
	for _, pj := range j.Phases {
		for _, f := range pj.J.Firings {
			fr := FiringRef{pj.Phase, f.Seq}
			for i := range f.Effects {
				eff := &f.Effects[i]
				if eff.Kind != prod.EffDo {
					continue
				}
				eff.Refs(func(r prod.Ref) {
					if slices.Contains(depthKinds, r.Kind) {
						add(r, fr, eff.Name)
					}
				})
			}
		}
	}
	// Components created inside appliers or the rewire pass. Each ref is a
	// distinct key, so visit order cannot reorder any per-ref note list.
	//daalint:allow detmap distinct keys, per-ref output unaffected
	for ref, fr := range pt.created {
		add(ref, fr, "created")
	}
	// Control states: attribute the placement firings of the operators
	// they execute; a state with no operators borrows from the nearest
	// populated step of its body.
	for _, st := range d.States {
		ref, _ := encodeRef(st)
		for _, op := range st.Ops {
			add(ref, pt.opPlace[op], "place-op")
		}
		if len(st.Ops) > 0 {
			continue
		}
		if near := nearestPopulated(d, st); near != nil {
			add(ref, pt.opPlace[near.Ops[0]], "place-op (adjacent step)")
		}
	}
	p := &Provenance{Design: d.Name}
	for _, c := range designComponents(d) {
		ref, _ := encodeRef(c)
		ns := notes[ref]
		sort.SliceStable(ns, func(i, k int) bool {
			if pi, pk := phaseIndex(ns[i].Phase), phaseIndex(ns[k].Phase); pi != pk {
				return pi < pk
			}
			return ns[i].Seq < ns[k].Seq
		})
		p.Components = append(p.Components, ComponentHistory{
			Kind:    ref.Kind,
			ID:      ref.ID,
			Label:   fmt.Sprintf("%v", c),
			Firings: ns,
		})
	}
	return p
}

// nearestPopulated returns the closest state of the same body that
// executes at least one operator, preferring earlier steps: the body's
// steps come in index order, so a tie keeps the one found first.
func nearestPopulated(d *rtl.Design, st *rtl.State) *rtl.State {
	var best *rtl.State
	for _, other := range d.Steps(st.Body) {
		if len(other.Ops) > 0 && (best == nil || absInt(other.Index-st.Index) < absInt(best.Index-st.Index)) {
			best = other
		}
	}
	return best
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// designComponents lists the final design's components in report order.
func designComponents(d *rtl.Design) []any {
	var out []any
	for _, r := range d.Registers {
		out = append(out, r)
	}
	for _, m := range d.Memories {
		out = append(out, m)
	}
	for _, p := range d.Ports {
		out = append(out, p)
	}
	for _, u := range d.Units {
		out = append(out, u)
	}
	for _, st := range d.States {
		out = append(out, st)
	}
	for _, c := range d.Consts {
		out = append(out, c)
	}
	for _, m := range d.Muxes {
		out = append(out, m)
	}
	for _, jn := range d.Junctions {
		out = append(out, jn)
	}
	for _, l := range d.Links {
		out = append(out, l)
	}
	return out
}

// Select returns the components whose label contains sel (case-
// insensitive). An empty selector or "all" selects everything.
func (p *Provenance) Select(sel string) []ComponentHistory {
	if sel == "" || sel == "all" {
		return p.Components
	}
	needle := strings.ToLower(sel)
	var out []ComponentHistory
	for _, c := range p.Components {
		if strings.Contains(strings.ToLower(c.Label), needle) {
			out = append(out, c)
		}
	}
	return out
}

// Explain writes the firing history of every component matching sel and
// reports how many matched. This is the one renderer behind daa -explain,
// daad GET /v1/explain, and the golden provenance tests.
func (p *Provenance) Explain(w io.Writer, sel string) int {
	comps := p.Select(sel)
	for i, c := range comps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, c.Label)
		if len(c.Firings) == 0 {
			fmt.Fprintln(w, "    (no recorded firings)")
			continue
		}
		for _, n := range c.Firings {
			fmt.Fprintf(w, "    %-14s %-42s %s\n", fmt.Sprintf("%s/%d", n.Phase, n.Seq), n.Rule, n.Effect)
		}
	}
	return len(comps)
}

// DepthRow summarizes provenance depth for one component kind: how many
// firings the final components of that kind resolve to, by phase.
type DepthRow struct {
	Kind       string
	Components int
	ByPhase    map[string]int
	Total      int
	Mean       float64 // firings per component
}

// depthKinds lists the journal ref kinds of design components, in
// depth-table order.
var depthKinds = []string{"reg", "mem", "port", "unit", "state", "const", "mux", "junction", "link"}

// Depth aggregates firings-per-final-component by kind and phase, the
// data behind the exp provenance-depth table.
func (p *Provenance) Depth() []DepthRow {
	rows := map[string]*DepthRow{}
	for _, c := range p.Components {
		r := rows[c.Kind]
		if r == nil {
			r = &DepthRow{Kind: c.Kind, ByPhase: map[string]int{}}
			rows[c.Kind] = r
		}
		r.Components++
		for _, n := range c.Firings {
			r.ByPhase[n.Phase]++
			r.Total++
		}
	}
	var out []DepthRow
	for _, k := range depthKinds {
		r := rows[k]
		if r == nil {
			continue
		}
		if r.Components > 0 {
			r.Mean = float64(r.Total) / float64(r.Components)
		}
		out = append(out, *r)
	}
	return out
}

// Unattributed returns the labels of final components with no recorded
// firing; the replay-invariant tests require it to be empty.
func (p *Provenance) Unattributed() []string {
	var out []string
	for _, c := range p.Components {
		if len(c.Firings) == 0 {
			out = append(out, c.Label)
		}
	}
	return out
}

// OpHistory maps value-trace operator IDs to the firings whose effects
// mention them, for the provenance-annotated DOT mode of vtdump.
func (j *Journal) OpHistory() map[int][]FiringNote {
	out := map[int][]FiringNote{}
	for _, pj := range j.Phases {
		for _, f := range pj.J.Firings {
			for i := range f.Effects {
				eff := &f.Effects[i]
				if eff.Kind != prod.EffDo {
					continue
				}
				eff.Refs(func(r prod.Ref) {
					if r.Kind != "op" {
						return
					}
					ns := out[r.ID]
					if len(ns) > 0 && ns[len(ns)-1].Phase == pj.Phase && ns[len(ns)-1].Seq == f.Seq {
						return
					}
					out[r.ID] = append(ns, FiringNote{Phase: pj.Phase, Seq: f.Seq, Rule: f.Rule, Effect: eff.Name})
				})
			}
		}
	}
	return out
}
