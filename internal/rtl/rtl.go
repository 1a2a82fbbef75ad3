// Package rtl models the technology-independent register-transfer structure
// that the VLSI Design Automation Assistant produces: registers, memories,
// functional units, multiplexers, links, external ports, and a control-step
// schedule binding every value-trace operator to hardware.
//
// The model is deliberately structural, exactly as in the paper: no gate
// netlist, no layout — those belonged to later stages of the CMU system.
// Validate checks the structural and binding invariants and derives the
// controller; internal/cost attaches gate-equivalent weights for design
// comparison.
//
// The package owns the interconnect facts every allocator shares: which
// sink each operand feeds (Design.OpTransfers, Design.Transfers, in the
// orientation Design.Operand reads) and how a source reaches a sink
// (Design.FindRoute, the one walk over the links).
// Validate, which derives the controller in the same walk, and the binder
// in internal/bind both read them from here.
package rtl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vt"
)

// Register is an allocated storage register.
type Register struct {
	ID    int
	Name  string
	Width int
}

func (r *Register) String() string { return fmt.Sprintf("reg %s<%d>", r.Name, r.Width) }

// Memory is an allocated random-access memory with one read/write port.
type Memory struct {
	ID    int
	Name  string
	Width int
	Words int
}

func (m *Memory) String() string { return fmt.Sprintf("mem %s[%d]<%d>", m.Name, m.Words, m.Width) }

// Port is an external connection of the design.
type Port struct {
	ID    int
	Name  string
	Width int
	In    bool
}

func (p *Port) String() string {
	dir := "out"
	if p.In {
		dir = "in"
	}
	return fmt.Sprintf("port %s %s<%d>", dir, p.Name, p.Width)
}

// Unit is a functional unit. Fns lists the value-trace operations it
// implements; a unit with several functions is an ALU.
type Unit struct {
	ID    int
	Name  string
	Width int
	Fns   map[vt.OpKind]bool
}

// Has reports whether the unit implements the operation.
func (u *Unit) Has(k vt.OpKind) bool { return u.Fns[k] }

// FnList returns the unit's functions sorted by name.
func (u *Unit) FnList() []vt.OpKind {
	out := make([]vt.OpKind, 0, len(u.Fns))
	for k := range u.Fns {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (u *Unit) String() string {
	names := make([]string, 0, len(u.Fns))
	for _, k := range u.FnList() {
		names = append(names, k.String())
	}
	return fmt.Sprintf("unit %s<%d>{%s}", u.Name, u.Width, strings.Join(names, ","))
}

// Constant is a hardwired constant source.
type Constant struct {
	ID    int
	Value uint64
	Width int
}

func (c *Constant) String() string { return fmt.Sprintf("const #%d<%d>", c.Value, c.Width) }

// Mux is a multiplexer feeding exactly one destination endpoint.
type Mux struct {
	ID     int
	Name   string
	Width  int
	Inputs int // number of input ways (each fed by exactly one link)
}

func (m *Mux) String() string { return fmt.Sprintf("mux %s<%d>x%d", m.Name, m.Width, m.Inputs) }

// Junction is a wiring junction that concatenates bit fields: each input
// way contributes a contiguous field of the output. It costs no logic
// (pure wiring) and asserts no control, unlike a multiplexer, but it is a
// first-class component so the single-driver-per-sink invariant and the
// control derivation stay honest.
type Junction struct {
	ID     int
	Name   string
	Width  int
	Inputs int
}

func (j *Junction) String() string {
	return fmt.Sprintf("junction %s<%d>x%d", j.Name, j.Width, j.Inputs)
}

// EndpointKind identifies a connection point on a component.
type EndpointKind int

// Endpoint kinds.
const (
	EPRegOut EndpointKind = iota
	EPRegIn
	EPMemAddr
	EPMemDataIn
	EPMemDataOut
	EPUnitIn // Index selects the operand port (0 or 1)
	EPUnitOut
	EPMuxIn // Index selects the way
	EPMuxOut
	EPPortIn  // external input pin (a source inside the design)
	EPPortOut // external output pin (a sink inside the design)
	EPConst
	EPJunctionIn // Index selects the field way
	EPJunctionOut
)

var epNames = [...]string{
	EPRegOut: "regout", EPRegIn: "regin",
	EPMemAddr: "memaddr", EPMemDataIn: "memin", EPMemDataOut: "memout",
	EPUnitIn: "unitin", EPUnitOut: "unitout",
	EPMuxIn: "muxin", EPMuxOut: "muxout",
	EPPortIn: "portin", EPPortOut: "portout", EPConst: "const",
	EPJunctionIn: "jin", EPJunctionOut: "jout",
}

func (k EndpointKind) String() string { return epNames[k] }

// IsSource reports whether the endpoint kind produces data.
func (k EndpointKind) IsSource() bool {
	switch k {
	case EPRegOut, EPMemDataOut, EPUnitOut, EPMuxOut, EPPortIn, EPConst, EPJunctionOut:
		return true
	}
	return false
}

// Endpoint is a connection point: a component plus a port selector.
type Endpoint struct {
	Kind  EndpointKind
	Comp  any // *Register, *Memory, *Unit, *Mux, *Port, or *Constant
	Index int // operand/way index for EPUnitIn and EPMuxIn
}

func (e Endpoint) String() string {
	name := "?"
	switch c := e.Comp.(type) {
	case *Register:
		name = c.Name
	case *Memory:
		name = c.Name
	case *Unit:
		name = c.Name
	case *Mux:
		name = c.Name
	case *Junction:
		name = c.Name
	case *Port:
		name = c.Name
	case *Constant:
		name = fmt.Sprintf("#%d", c.Value)
	}
	if e.Kind == EPUnitIn || e.Kind == EPMuxIn || e.Kind == EPJunctionIn {
		return fmt.Sprintf("%s.%s%d", name, e.Kind, e.Index)
	}
	return fmt.Sprintf("%s.%s", name, e.Kind)
}

// Width reports the natural bit width of the endpoint.
func (e Endpoint) Width() int {
	switch c := e.Comp.(type) {
	case *Register:
		return c.Width
	case *Memory:
		if e.Kind == EPMemAddr {
			return addrWidth(c.Words)
		}
		return c.Width
	case *Unit:
		return c.Width
	case *Mux:
		return c.Width
	case *Junction:
		return c.Width
	case *Port:
		return c.Width
	case *Constant:
		return c.Width
	}
	return 0
}

func addrWidth(words int) int {
	w := 1
	for 1<<uint(w) < words {
		w++
	}
	return w
}

// Link is a point-to-point connection carrying Width bits From a source
// endpoint To a sink endpoint.
type Link struct {
	ID    int
	Width int
	From  Endpoint
	To    Endpoint
}

func (l *Link) String() string {
	return fmt.Sprintf("link %s -> %s <%d>", l.From, l.To, l.Width)
}

// State is one control step. Ops lists the value-trace operators executing
// in this step, in trace order (ascending Seq); Validate checks it.
type State struct {
	ID    int
	Body  string // owning value-trace body
	Index int    // position within the body's step sequence
	Ops   []*vt.Op
}

func (s *State) String() string {
	return fmt.Sprintf("state %s/%d (%d ops)", s.Body, s.Index, len(s.Ops))
}

// Design is a complete register-transfer structure plus the binding of a
// value trace onto it.
type Design struct {
	Name      string
	Trace     *vt.Program
	Registers []*Register
	Memories  []*Memory
	Ports     []*Port
	Units     []*Unit
	Muxes     []*Mux
	Junctions []*Junction
	Consts    []*Constant
	Links     []*Link
	States    []*State // every control step, in creation (ID) order

	// Bindings.
	OpUnit      map[*vt.Op]*Unit     // compute op -> functional unit
	OpState     map[*vt.Op]*State    // every op -> control step
	OpJunction  map[*vt.Op]*Junction // concat op -> its wiring junction
	CarrierReg  map[*vt.Carrier]*Register
	CarrierMem  map[*vt.Carrier]*Memory
	CarrierPort map[*vt.Carrier]*Port
	ValueReg    map[*vt.Value]*Register // intermediate value -> holding register

	swapped   map[*vt.Op]bool     // commutative ops whose operands cross, see Operand
	steps     map[string][]*State // body name -> its steps, see Steps
	nextID    int
	observers []func(any)
}

// Observe registers f to be called with every component subsequently
// added to the design (a *Register, *Memory, *Port, *Unit, *Mux,
// *Junction, *Constant, *Link, or *State). The provenance layer in
// internal/core uses this to attribute components to the rule firings
// that created them; with no observers registered the hook costs one nil
// slice check per allocation.
func (d *Design) Observe(f func(any)) { d.observers = append(d.observers, f) }

func (d *Design) added(c any) {
	for _, f := range d.observers {
		f(c)
	}
}

// NewDesign returns an empty design for the given trace.
func NewDesign(name string, trace *vt.Program) *Design {
	return &Design{
		Name:        name,
		Trace:       trace,
		OpUnit:      map[*vt.Op]*Unit{},
		OpState:     map[*vt.Op]*State{},
		OpJunction:  map[*vt.Op]*Junction{},
		CarrierReg:  map[*vt.Carrier]*Register{},
		CarrierMem:  map[*vt.Carrier]*Memory{},
		CarrierPort: map[*vt.Carrier]*Port{},
		ValueReg:    map[*vt.Value]*Register{},
		steps:       map[string][]*State{},
	}
}

func (d *Design) id() int { d.nextID++; return d.nextID - 1 }

// AddRegister allocates a register.
func (d *Design) AddRegister(name string, width int) *Register {
	r := &Register{ID: d.id(), Name: name, Width: width}
	d.Registers = append(d.Registers, r)
	d.added(r)
	return r
}

// RemoveRegister deletes a register from the component list (used by the
// cleanup rules after merging). The caller must have repointed all links
// and bindings first; Validate catches dangling references.
func (d *Design) RemoveRegister(r *Register) {
	for i, x := range d.Registers {
		if x == r {
			d.Registers = append(d.Registers[:i], d.Registers[i+1:]...)
			return
		}
	}
}

// AddMemory allocates a memory.
func (d *Design) AddMemory(name string, width, words int) *Memory {
	m := &Memory{ID: d.id(), Name: name, Width: width, Words: words}
	d.Memories = append(d.Memories, m)
	d.added(m)
	return m
}

// AddPort allocates an external port.
func (d *Design) AddPort(name string, width int, in bool) *Port {
	p := &Port{ID: d.id(), Name: name, Width: width, In: in}
	d.Ports = append(d.Ports, p)
	d.added(p)
	return p
}

// AddUnit allocates a functional unit implementing the given operations.
func (d *Design) AddUnit(name string, width int, fns ...vt.OpKind) *Unit {
	u := &Unit{ID: d.id(), Name: name, Width: width, Fns: map[vt.OpKind]bool{}}
	for _, f := range fns {
		u.Fns[f] = true
	}
	d.Units = append(d.Units, u)
	d.added(u)
	return u
}

// RemoveUnit deletes a functional unit (used after operator folding).
func (d *Design) RemoveUnit(u *Unit) {
	for i, x := range d.Units {
		if x == u {
			d.Units = append(d.Units[:i], d.Units[i+1:]...)
			return
		}
	}
}

// AddMux allocates a multiplexer with the given number of ways.
func (d *Design) AddMux(name string, width, inputs int) *Mux {
	m := &Mux{ID: d.id(), Name: name, Width: width, Inputs: inputs}
	d.Muxes = append(d.Muxes, m)
	d.added(m)
	return m
}

// RemoveMux deletes a multiplexer.
func (d *Design) RemoveMux(m *Mux) {
	for i, x := range d.Muxes {
		if x == m {
			d.Muxes = append(d.Muxes[:i], d.Muxes[i+1:]...)
			return
		}
	}
}

// AddJunction allocates a wiring junction with the given number of field
// ways.
func (d *Design) AddJunction(name string, width, inputs int) *Junction {
	j := &Junction{ID: d.id(), Name: name, Width: width, Inputs: inputs}
	d.Junctions = append(d.Junctions, j)
	d.added(j)
	return j
}

// AddConst allocates (or reuses) a hardwired constant source.
func (d *Design) AddConst(value uint64, width int) *Constant {
	for _, c := range d.Consts {
		if c.Value == value && c.Width == width {
			return c
		}
	}
	c := &Constant{ID: d.id(), Value: value, Width: width}
	d.Consts = append(d.Consts, c)
	d.added(c)
	return c
}

// AddLink connects two endpoints.
func (d *Design) AddLink(from, to Endpoint, width int) *Link {
	l := &Link{ID: d.id(), Width: width, From: from, To: to}
	d.Links = append(d.Links, l)
	d.added(l)
	return l
}

// RemoveLink deletes a link.
func (d *Design) RemoveLink(l *Link) {
	for i, x := range d.Links {
		if x == l {
			d.Links = append(d.Links[:i], d.Links[i+1:]...)
			return
		}
	}
}

// AddState appends a control step for the named body. Allocators add a
// body's steps in index order, so the step at position i of Steps(body)
// has Index i; Validate rejects a design where that does not hold.
func (d *Design) AddState(body string, index int) *State {
	s := &State{ID: d.id(), Body: body, Index: index}
	d.States = append(d.States, s)
	d.steps[body] = append(d.steps[body], s)
	d.added(s)
	return s
}

// Steps returns the named body's control steps in the order AddState
// created them, which in a valid design is index order. The design owns
// this order: the controller graph, the simulator and the allocators walk
// the list instead of regrouping d.States. The caller must not modify it.
func (d *Design) Steps(body string) []*State { return d.steps[body] }

// SwapOperands crosses the operands of a two-operand commutative
// operator: operand 0 then feeds unit port 1 and operand 1 port 0, and a
// second swap restores the trace's order. The design owns this
// orientation so that allocation never rewrites the value trace; the
// DAA's commutativity rule is its only writer.
func (d *Design) SwapOperands(op *vt.Op) {
	if d.swapped == nil {
		d.swapped = map[*vt.Op]bool{}
	}
	d.swapped[op] = !d.swapped[op]
}

// Operand returns the value that feeds unit port i of op: op.Args[i],
// unless SwapOperands crossed op's operands. A design that never swaps
// (every baseline's) reads the trace's order.
func (d *Design) Operand(op *vt.Op, i int) *vt.Value {
	if d.swapped[op] {
		i = 1 - i
	}
	return op.Args[i]
}

// listed reports whether s is the step at position s.Index of its body's
// list.
func (d *Design) listed(s *State) bool {
	ss := d.steps[s.Body]
	return s.Index >= 0 && s.Index < len(ss) && ss[s.Index] == s
}

// Counts summarizes component usage for the experiment tables.
type Counts struct {
	Registers int
	RegBits   int
	Memories  int
	MemBits   int
	Ports     int
	Units     int
	UnitFns   int // total functions across units
	Muxes     int
	MuxInputs int
	Junctions int
	Links     int
	LinkBits  int
	Consts    int
	States    int
}

// Counts computes the component summary.
func (d *Design) Counts() Counts {
	c := Counts{
		Registers: len(d.Registers),
		Memories:  len(d.Memories),
		Ports:     len(d.Ports),
		Units:     len(d.Units),
		Muxes:     len(d.Muxes),
		Junctions: len(d.Junctions),
		Links:     len(d.Links),
		Consts:    len(d.Consts),
		States:    len(d.States),
	}
	for _, r := range d.Registers {
		c.RegBits += r.Width
	}
	for _, m := range d.Memories {
		c.MemBits += m.Width * m.Words
	}
	for _, u := range d.Units {
		c.UnitFns += len(u.Fns)
	}
	for _, m := range d.Muxes {
		c.MuxInputs += m.Inputs
	}
	for _, l := range d.Links {
		c.LinkBits += l.Width
	}
	return c
}

func (c Counts) String() string {
	return fmt.Sprintf("regs=%d(%db) mems=%d units=%d(%dfn) muxes=%d(%din) links=%d(%db) states=%d",
		c.Registers, c.RegBits, c.Memories, c.Units, c.UnitFns,
		c.Muxes, c.MuxInputs, c.Links, c.LinkBits, c.States)
}

// Report renders a human-readable structural summary.
func (d *Design) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s: %s\n", d.Name, d.Counts())
	sec := func(title string, n int) {
		if n > 0 {
			fmt.Fprintf(&b, "  %s:\n", title)
		}
	}
	sec("registers", len(d.Registers))
	for _, r := range d.Registers {
		fmt.Fprintf(&b, "    %s\n", r)
	}
	sec("memories", len(d.Memories))
	for _, m := range d.Memories {
		fmt.Fprintf(&b, "    %s\n", m)
	}
	sec("ports", len(d.Ports))
	for _, p := range d.Ports {
		fmt.Fprintf(&b, "    %s\n", p)
	}
	sec("units", len(d.Units))
	for _, u := range d.Units {
		fmt.Fprintf(&b, "    %s\n", u)
	}
	sec("muxes", len(d.Muxes))
	for _, m := range d.Muxes {
		fmt.Fprintf(&b, "    %s\n", m)
	}
	sec("junctions", len(d.Junctions))
	for _, j := range d.Junctions {
		fmt.Fprintf(&b, "    %s\n", j)
	}
	sec("links", len(d.Links))
	for _, l := range d.Links {
		fmt.Fprintf(&b, "    %s\n", l)
	}
	fmt.Fprintf(&b, "  control steps: %d\n", len(d.States))
	return b.String()
}
