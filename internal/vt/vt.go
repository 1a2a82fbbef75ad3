// Package vt implements the Value Trace, the dataflow/control intermediate
// representation that the CMU design-automation system derived from ISPS and
// that the VLSI Design Automation Assistant (DAC 1983) consumes.
//
// A value trace is a set of bodies. Each body is a sequence of operators in
// program order over single-assignment values; branching (ISPS DECODE and
// conditionals) appears as a SELECT operator whose arms are sub-bodies,
// loops as LOOP operators with condition and body sub-bodies, and procedure
// invocation as CALL operators referencing the callee's body (built once and
// shared by all call sites, as vtbodies were).
//
// Build lowers an analyzed isps.Program; Validate checks the structural
// invariants the synthesis rules rely on.
package vt

import (
	"fmt"
	"strings"

	"repro/internal/isps"
)

// CarrierKind classifies a storage carrier.
type CarrierKind int

// Carrier kinds.
const (
	CarReg CarrierKind = iota
	CarMem
	CarPortIn
	CarPortOut
)

func (k CarrierKind) String() string {
	switch k {
	case CarReg:
		return "reg"
	case CarMem:
		return "mem"
	case CarPortIn:
		return "port-in"
	case CarPortOut:
		return "port-out"
	}
	return "carrier?"
}

// Carrier is a declared storage element referenced by the trace.
type Carrier struct {
	ID    int
	Kind  CarrierKind
	Name  string
	Width int
	Words int // >1 only for memories
	Decl  *isps.Decl
}

func (c *Carrier) String() string {
	if c.Kind == CarMem {
		return fmt.Sprintf("%s[%d]<%d>", c.Name, c.Words, c.Width)
	}
	return fmt.Sprintf("%s<%d>", c.Name, c.Width)
}

// Value is a single-assignment dataflow value.
type Value struct {
	ID       int
	Width    int
	Def      *Op   // the operator producing this value
	Uses     []*Op // operators consuming it
	IsConst  bool
	ConstVal uint64
	Carrier  *Carrier // provenance for carrier reads (nil otherwise)
}

func (v *Value) String() string {
	if v == nil {
		return "v?"
	}
	if v.IsConst {
		return fmt.Sprintf("#%d<%d>", v.ConstVal, v.Width)
	}
	if v.Carrier != nil {
		return fmt.Sprintf("v%d(%s)<%d>", v.ID, v.Carrier.Name, v.Width)
	}
	return fmt.Sprintf("v%d<%d>", v.ID, v.Width)
}

// OpKind enumerates value-trace operators.
type OpKind int

// Operator kinds. The arithmetic/logic kinds correspond one-to-one with the
// ISPS operator vocabulary; the rest are trace structure.
const (
	OpConst OpKind = iota
	OpRead         // read a register or port carrier
	OpWrite        // write a register or output-port carrier
	OpMemRead
	OpMemWrite
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpNot
	OpNeg
	OpEql
	OpNeq
	OpLss
	OpLeq
	OpGtr
	OpGeq
	OpShl
	OpShr
	OpConcat
	OpSlice
	OpTest // nonzero test: wide condition -> 1 bit
	OpSelect
	OpLoop
	OpCall
	OpLeave
	OpNop
)

var opKindNames = [...]string{
	OpConst: "const", OpRead: "read", OpWrite: "write",
	OpMemRead: "memread", OpMemWrite: "memwrite",
	OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpNot: "not", OpNeg: "neg",
	OpEql: "eql", OpNeq: "neq", OpLss: "lss", OpLeq: "leq",
	OpGtr: "gtr", OpGeq: "geq",
	OpShl: "shl", OpShr: "shr", OpConcat: "concat", OpSlice: "slice",
	OpTest: "test", OpSelect: "select", OpLoop: "loop", OpCall: "call",
	OpLeave: "leave", OpNop: "nop",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// OpKindByName parses the wire spelling of an operator kind — the inverse
// of String for the kinds String names.
func OpKindByName(name string) (OpKind, bool) {
	for k, n := range opKindNames {
		if n == name {
			return OpKind(k), true
		}
	}
	return 0, false
}

// IsCompute reports whether the operator performs a data computation that
// requires a functional unit (as opposed to storage access, wiring, or
// control structure).
func (k OpKind) IsCompute() bool {
	switch k {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpNot, OpNeg,
		OpEql, OpNeq, OpLss, OpLeq, OpGtr, OpGeq, OpShl, OpShr, OpTest:
		return true
	}
	return false
}

// IsWiring reports whether the operator is realized by wiring alone
// (bit selection and concatenation cost no logic).
func (k OpKind) IsWiring() bool { return k == OpSlice || k == OpConcat }

// IsControl reports whether the operator structures control flow.
func (k OpKind) IsControl() bool {
	switch k {
	case OpSelect, OpLoop, OpCall, OpLeave, OpNop:
		return true
	}
	return false
}

// IsCommutative reports whether argument order is interchangeable.
func (k OpKind) IsCommutative() bool {
	switch k {
	case OpAdd, OpAnd, OpOr, OpXor, OpEql, OpNeq:
		return true
	}
	return false
}

// LoopKind distinguishes the loop forms.
type LoopKind int

// Loop kinds.
const (
	LoopWhile LoopKind = iota
	LoopRepeat
)

// Branch is one arm of a SELECT operator.
type Branch struct {
	Values    []uint64 // selector values matched by this arm
	Otherwise bool     // the default arm
	Body      *Body
}

// Op is a value-trace operator.
type Op struct {
	ID     int
	Kind   OpKind
	Body   *Body // owning body
	Seq    int   // index within Body.Ops
	Args   []*Value
	Result *Value

	Carrier *Carrier // Read/Write/MemRead/MemWrite
	Hi, Lo  int      // Slice bounds; for partial Write, destination bit range
	Partial bool     // Write targets a sub-field of the carrier

	Branches []*Branch // Select
	Callee   *Body     // Call
	LoopKind LoopKind  // Loop
	Count    uint64    // Loop (repeat count)
	CondBody *Body     // Loop (while): body computing the condition
	CondVal  *Value    // Loop (while): the 1-bit condition value
	LoopBody *Body     // Loop

	Pos  isps.Pos
	Deps []*Op // intra-body predecessors (data + carrier hazards + barriers)
}

func (o *Op) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%d = %s", o.ID, o.Kind)
	if o.Carrier != nil {
		fmt.Fprintf(&b, " %s", o.Carrier.Name)
	}
	if o.Kind == OpSlice || (o.Kind == OpWrite && o.Partial) {
		fmt.Fprintf(&b, "<%d:%d>", o.Hi, o.Lo)
	}
	for _, a := range o.Args {
		fmt.Fprintf(&b, " %s", a)
	}
	if o.Result != nil {
		fmt.Fprintf(&b, " -> %s", o.Result)
	}
	return b.String()
}

// UnitWidth is the width a functional unit needs to execute the operator:
// its widest operand or result.
func (o *Op) UnitWidth() int {
	w := 0
	for _, a := range o.Args {
		w = max(w, a.Width)
	}
	if o.Result != nil {
		w = max(w, o.Result.Width)
	}
	return w
}

// BodyKind classifies how a body is reached.
type BodyKind int

// Body kinds.
const (
	BodyProc   BodyKind = iota // a named procedure (including main)
	BodyBranch                 // an arm of a SELECT
	BodyLoop                   // the body (or condition) of a LOOP
)

// Body is a straight-line operator sequence; control structure appears as
// SELECT/LOOP/CALL operators that reference sub-bodies.
type Body struct {
	ID     int
	Name   string
	Kind   BodyKind
	Parent *Body // nil for procedure bodies
	Ops    []*Op
}

func (b *Body) String() string { return fmt.Sprintf("body %s (%d ops)", b.Name, len(b.Ops)) }

// Program is a complete value trace.
type Program struct {
	Name     string
	Source   *isps.Program
	Carriers []*Carrier
	Bodies   []*Body // every body, procedure bodies first
	Main     *Body

	nextVal int
	nextOp  int
}

// CarrierByName returns the named carrier, or nil.
func (p *Program) CarrierByName(name string) *Carrier {
	for _, c := range p.Carriers {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// AllOps returns every operator in the trace, in body order then program
// order, in a new slice sized by OpCount.
func (p *Program) AllOps() []*Op {
	out := make([]*Op, 0, p.OpCount())
	for _, b := range p.Bodies {
		out = append(out, b.Ops...)
	}
	return out
}

// OpCount reports the total number of operators in the trace.
func (p *Program) OpCount() int {
	n := 0
	for _, b := range p.Bodies {
		n += len(b.Ops)
	}
	return n
}

// Stats summarizes a trace for reporting and scaling experiments.
type Stats struct {
	Bodies   int
	Ops      int
	Values   int
	Compute  int // operators needing functional units
	Storage  int // carrier reads/writes (incl. memory)
	Wiring   int // slice/concat
	Control  int // select/loop/call/leave/nop
	Consts   int
	Carriers int
}

// Stats computes summary statistics for the trace.
func (p *Program) Stats() Stats {
	s := Stats{Bodies: len(p.Bodies), Carriers: len(p.Carriers), Values: p.nextVal}
	for _, op := range p.AllOps() {
		s.Ops++
		switch {
		case op.Kind.IsCompute():
			s.Compute++
		case op.Kind.IsWiring():
			s.Wiring++
		case op.Kind.IsControl():
			s.Control++
		case op.Kind == OpConst:
			s.Consts++
		default:
			s.Storage++
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("bodies=%d ops=%d (compute=%d storage=%d wiring=%d control=%d const=%d) values=%d carriers=%d",
		s.Bodies, s.Ops, s.Compute, s.Storage, s.Wiring, s.Control, s.Consts, s.Values, s.Carriers)
}

func (p *Program) newValue(width int) *Value {
	v := &Value{ID: p.nextVal, Width: width}
	p.nextVal++
	return v
}

func (p *Program) newOp(b *Body, kind OpKind) *Op {
	op := &Op{ID: p.nextOp, Kind: kind, Body: b, Seq: len(b.Ops)}
	p.nextOp++
	b.Ops = append(b.Ops, op)
	return op
}

func (p *Program) newBody(name string, kind BodyKind, parent *Body) *Body {
	b := &Body{ID: len(p.Bodies), Name: name, Kind: kind, Parent: parent}
	p.Bodies = append(p.Bodies, b)
	return b
}
