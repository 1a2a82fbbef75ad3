package rtl

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/vt"
)

// Controller sequencing. ControlFlow derives the state-transition graph of
// the synthesized controller: sequential steps, DECODE branches and joins,
// loop entries/backs/exits, LEAVE exits, and subroutine calls. Calls
// return dynamically (the callee's body is shared by every call site, so
// the era's controllers kept a micro-return address); a return shows as an
// edge with no static target.

// EdgeKind classifies a controller transition.
type EdgeKind int

// Edge kinds.
const (
	EdgeSeq EdgeKind = iota
	EdgeBranch
	EdgeLoopEnter
	EdgeLoopBack
	EdgeLoopExit
	EdgeLeave
	EdgeCall
	EdgeReturn // dynamic: To is nil
)

var edgeNames = [...]string{
	EdgeSeq: "seq", EdgeBranch: "branch", EdgeLoopEnter: "loop",
	EdgeLoopBack: "back", EdgeLoopExit: "exit", EdgeLeave: "leave",
	EdgeCall: "call", EdgeReturn: "return",
}

func (k EdgeKind) String() string { return edgeNames[k] }

// Transition is one edge of the controller graph. To is nil for dynamic
// returns and for transitions that leave the entry body (machine-cycle
// end).
type Transition struct {
	From  *State
	To    *State
	Kind  EdgeKind
	Label string
}

func (t Transition) String() string {
	to := "(dynamic)"
	if t.To != nil {
		to = fmt.Sprintf("%s/%d", t.To.Body, t.To.Index)
	}
	s := fmt.Sprintf("%s/%d -> %s [%s]", t.From.Body, t.From.Index, to, t.Kind)
	if t.Label != "" {
		s += " " + t.Label
	}
	return s
}

// flowBuilder accumulates transitions while walking the body structure.
type flowBuilder struct {
	d     *Design
	edges []Transition
}

// ControlFlow derives the controller's transition graph, walking each
// body's steps in the order the design lists them (Steps).
func (d *Design) ControlFlow() ([]Transition, error) {
	if d.Trace == nil {
		return nil, fmt.Errorf("rtl: design has no trace")
	}
	fb := &flowBuilder{d: d}
	for _, body := range d.Trace.Bodies {
		if body.Kind == vt.BodyProc {
			fb.walkBody(body, nil, nil)
		}
	}
	return fb.edges, nil
}

// first returns the first state of a body, or nil when the body is empty.
func (fb *flowBuilder) first(b *vt.Body) *State {
	if ss := fb.d.Steps(b.Name); len(ss) > 0 {
		return ss[0]
	}
	return nil
}

// walkBody emits the edges of one body. join is where the body continues
// when it falls off its end (nil = dynamic/outer), and loopExit is where a
// LEAVE inside this body transfers (nil when not inside a loop).
func (fb *flowBuilder) walkBody(b *vt.Body, join *State, loopExit *State) {
	ss := fb.d.Steps(b.Name)
	for i, s := range ss {
		next := join
		kind := EdgeReturn
		if i+1 < len(ss) {
			next = ss[i+1]
			kind = EdgeSeq
		} else if join != nil {
			kind = EdgeSeq
		}
		ctrl := fb.controlOp(s)
		if ctrl == nil {
			fb.edge(s, next, kind, "")
			continue
		}
		switch ctrl.Kind {
		case vt.OpSelect:
			for _, br := range ctrl.Branches {
				label := branchLabel(br)
				if f := fb.first(br.Body); f != nil {
					fb.edge(s, f, EdgeBranch, label)
					fb.walkBody(br.Body, next, loopExit)
				} else {
					fb.edge(s, next, EdgeBranch, label+" (empty)")
				}
			}
		case vt.OpLoop:
			switch ctrl.LoopKind {
			case vt.LoopWhile:
				condFirst := fb.first(ctrl.CondBody)
				bodyFirst := fb.first(ctrl.LoopBody)
				condLast := fb.lastOrNil(ctrl.CondBody)
				if condFirst == nil { // empty condition: degenerate
					condFirst, condLast = s, s
				} else {
					fb.edge(s, condFirst, EdgeLoopEnter, "")
					fb.walkBody(ctrl.CondBody, nil, nil)
				}
				if bodyFirst != nil {
					fb.edge(condLast, bodyFirst, EdgeBranch, "true")
					fb.walkBody(ctrl.LoopBody, condFirst, next)
					// The loop body's natural fall-through re-enters the
					// condition; walkBody already emitted it via join.
				} else {
					fb.edge(condLast, condFirst, EdgeLoopBack, "true (empty body)")
				}
				fb.edge(condLast, next, EdgeLoopExit, "false")
			case vt.LoopRepeat:
				bodyFirst := fb.first(ctrl.LoopBody)
				if bodyFirst == nil {
					fb.edge(s, next, EdgeSeq, "")
					continue
				}
				fb.edge(s, bodyFirst, EdgeLoopEnter, fmt.Sprintf("x%d", ctrl.Count))
				fb.walkBody(ctrl.LoopBody, bodyFirst, next)
				fb.edge(fb.lastOrNil(ctrl.LoopBody), next, EdgeLoopExit, "done")
			}
		case vt.OpCall:
			if f := fb.first(ctrl.Callee); f != nil {
				fb.edge(s, f, EdgeCall, ctrl.Callee.Name)
				// The callee returns dynamically to this call's successor.
				fb.edge(fb.lastOrNil(ctrl.Callee), next, EdgeReturn, "to "+s.Body)
			} else {
				fb.edge(s, next, EdgeSeq, "empty callee")
			}
		case vt.OpLeave:
			fb.edge(s, loopExit, EdgeLeave, "")
		default:
			fb.edge(s, next, kind, "")
		}
	}
}

// lastOrNil returns the last state of a body, or nil.
func (fb *flowBuilder) lastOrNil(b *vt.Body) *State {
	ss := fb.d.Steps(b.Name)
	if len(ss) == 0 {
		return nil
	}
	return ss[len(ss)-1]
}

// controlOp returns the control operator of a state, if any.
func (fb *flowBuilder) controlOp(s *State) *vt.Op {
	for _, op := range s.Ops {
		switch op.Kind {
		case vt.OpSelect, vt.OpLoop, vt.OpCall, vt.OpLeave:
			return op
		}
	}
	return nil
}

func (fb *flowBuilder) edge(from, to *State, kind EdgeKind, label string) {
	if from == nil {
		return
	}
	fb.edges = append(fb.edges, Transition{From: from, To: to, Kind: kind, Label: label})
}

func branchLabel(br *vt.Branch) string {
	if br.Otherwise {
		return "otherwise"
	}
	parts := make([]string, len(br.Values))
	for i, v := range br.Values {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ",")
}

// WriteControlFlowDot renders the controller graph as Graphviz.
func (d *Design) WriteControlFlowDot(w io.Writer) error {
	edges, err := d.ControlFlow()
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", d.Name+"-control")
	id := func(s *State) string { return fmt.Sprintf("s%d", s.ID) }
	for _, s := range d.States {
		fmt.Fprintf(&b, "  %s [label=\"%s/%d\"];\n", id(s), s.Body, s.Index)
	}
	fmt.Fprintf(&b, "  done [shape=doublecircle, label=\"cycle\"];\n")
	for _, e := range edges {
		to := "done"
		if e.To != nil {
			to = id(e.To)
		}
		style := ""
		if e.Kind == EdgeReturn {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  %s -> %s [label=%q%s];\n", id(e.From), to, strings.TrimSpace(e.Kind.String()+" "+e.Label), style)
	}
	fmt.Fprintf(&b, "}\n")
	_, err = io.WriteString(w, b.String())
	return err
}

// ReachableStates returns the states reachable from the entry body's first
// state following static transitions plus call returns (a return edge is
// taken to mean the callee completes and control resumes at the recorded
// continuation).
func (d *Design) ReachableStates() (map[*State]bool, error) {
	edges, err := d.ControlFlow()
	if err != nil {
		return nil, err
	}
	out := map[*State][]*State{}
	for _, e := range edges {
		if e.To != nil {
			out[e.From] = append(out[e.From], e.To)
		}
	}
	seen := map[*State]bool{}
	var entry []*State
	if d.Trace.Main != nil {
		entry = d.Steps(d.Trace.Main.Name)
	}
	if len(entry) == 0 {
		return seen, nil
	}
	stack := []*State{entry[0]}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		stack = append(stack, out[s]...)
	}
	return seen, nil
}
