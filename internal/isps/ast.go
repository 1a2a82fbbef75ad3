package isps

import (
	"fmt"
	"strings"
)

// Program is a parsed ISPS processor description.
type Program struct {
	Name   string
	Decls  []*Decl
	Procs  []*Proc
	Main   *Proc // entry behavior; nil until sema links it
	Consts map[string]uint64

	symbols map[string]*Decl
	procs   map[string]*Proc
}

// Decl declares a carrier (register, memory, or port) or a named constant.
type Decl struct {
	Pos    Pos
	Kind   DeclKind
	Name   string
	Hi, Lo int    // bit range <hi:lo>; width = Hi-Lo+1
	AHi    int    // memory address range [ALo:AHi]
	ALo    int    //
	Value  uint64 // for DeclConst
}

// DeclKind classifies a declaration.
type DeclKind int

// Declaration kinds.
const (
	DeclReg DeclKind = iota
	DeclMem
	DeclPortIn
	DeclPortOut
	DeclConst
)

func (k DeclKind) String() string {
	switch k {
	case DeclReg:
		return "reg"
	case DeclMem:
		return "mem"
	case DeclPortIn:
		return "port in"
	case DeclPortOut:
		return "port out"
	case DeclConst:
		return "const"
	}
	return "decl?"
}

// Width returns the declared bit width of the carrier.
func (d *Decl) Width() int { return d.Hi - d.Lo + 1 }

// Words returns the number of addressable words in a memory declaration.
func (d *Decl) Words() int { return d.AHi - d.ALo + 1 }

func (d *Decl) String() string {
	switch d.Kind {
	case DeclMem:
		return fmt.Sprintf("mem %s[%d:%d]<%d:%d>", d.Name, d.ALo, d.AHi, d.Hi, d.Lo)
	case DeclConst:
		return fmt.Sprintf("const %s = %d", d.Name, d.Value)
	default:
		return fmt.Sprintf("%s %s<%d:%d>", d.Kind, d.Name, d.Hi, d.Lo)
	}
}

// Proc is a named behavior body ("main" is the entry point).
type Proc struct {
	Pos    Pos
	Name   string
	IsMain bool
	Body   []Stmt
}

// Stmt is an ISPS statement.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// Assign is a register transfer: LHS := RHS.
type Assign struct {
	Pos Pos
	LHS *LValue
	RHS Expr
}

// LValue is an assignable reference: a carrier, a bit-slice of a register,
// or an indexed memory word.
type LValue struct {
	Pos    Pos
	Name   string
	Decl   *Decl // resolved by sema
	HasSel bool  // bit slice <Hi:Lo>
	Hi, Lo int
	Index  Expr // memory index; nil for registers/ports
}

// Width returns the number of bits written by this lvalue (after sema).
func (l *LValue) Width() int {
	if l.HasSel {
		return l.Hi - l.Lo + 1
	}
	if l.Decl != nil {
		return l.Decl.Width()
	}
	return 0
}

func (l *LValue) String() string {
	var b strings.Builder
	b.WriteString(l.Name)
	if l.Index != nil {
		fmt.Fprintf(&b, "[%s]", l.Index)
	}
	if l.HasSel {
		fmt.Fprintf(&b, "<%d:%d>", l.Hi, l.Lo)
	}
	return b.String()
}

// If is a one- or two-armed conditional.
type If struct {
	Pos  Pos
	Cond Expr
	Then []Stmt
	Else []Stmt // nil when absent
}

// DecodeCase is one arm of a Decode statement.
type DecodeCase struct {
	Pos    Pos
	Values []uint64 // matched selector values
	Body   []Stmt
}

// Decode is the ISPS DECODE construct: an n-way branch on a selector.
type Decode struct {
	Pos       Pos
	Selector  Expr
	Cases     []*DecodeCase
	Otherwise []Stmt // nil when absent
}

// While is a condition-tested loop.
type While struct {
	Pos  Pos
	Cond Expr
	Body []Stmt
}

// Repeat is a bounded loop executed Count times.
type Repeat struct {
	Pos   Pos
	Count uint64
	Body  []Stmt
}

// Call invokes a named procedure.
type Call struct {
	Pos    Pos
	Name   string
	Callee *Proc // resolved by sema
}

// Nop is the explicit no-operation statement.
type Nop struct{ Pos Pos }

// Leave exits the enclosing loop (ISPS LEAVE).
type Leave struct{ Pos Pos }

func (*Assign) stmtNode() {}
func (*If) stmtNode()     {}
func (*Decode) stmtNode() {}
func (*While) stmtNode()  {}
func (*Repeat) stmtNode() {}
func (*Call) stmtNode()   {}
func (*Nop) stmtNode()    {}
func (*Leave) stmtNode()  {}

// StmtPos returns the statement's source position.
func (s *Assign) StmtPos() Pos { return s.Pos }

func (s *If) StmtPos() Pos     { return s.Pos }
func (s *Decode) StmtPos() Pos { return s.Pos }
func (s *While) StmtPos() Pos  { return s.Pos }
func (s *Repeat) StmtPos() Pos { return s.Pos }
func (s *Call) StmtPos() Pos   { return s.Pos }
func (s *Nop) StmtPos() Pos    { return s.Pos }
func (s *Leave) StmtPos() Pos  { return s.Pos }

// Expr is an ISPS expression. Width is computed by sema and is 0 before it.
type Expr interface {
	exprNode()
	ExprPos() Pos
	// ResultWidth reports the inferred bit width (valid after Analyze).
	ResultWidth() int
	String() string
}

// Num is an integer literal.
type Num struct {
	Pos   Pos
	Value uint64
	Width int // inferred (minimal, or widened by context)
}

// Ref reads a carrier, optionally a bit-slice, optionally memory-indexed.
type Ref struct {
	Pos    Pos
	Name   string
	Decl   *Decl // resolved by sema; nil for named constants folded away
	HasSel bool
	Hi, Lo int
	Index  Expr // memory index
	Width  int
}

// UnOp codes for unary operators.
type UnOpKind int

// Unary operators.
const (
	UnNot UnOpKind = iota // bitwise complement
	UnNeg                 // two's-complement negate
)

func (k UnOpKind) String() string {
	if k == UnNot {
		return "not"
	}
	return "-"
}

// UnOp applies a unary operator.
type UnOp struct {
	Pos   Pos
	Op    UnOpKind
	X     Expr
	Width int
}

// BinOpKind codes for binary operators.
type BinOpKind int

// Binary operators (ISPS word operators plus + and -).
const (
	OpAdd BinOpKind = iota
	OpSub
	OpAnd
	OpOr
	OpXor
	OpEql
	OpNeq
	OpLss
	OpLeq
	OpGtr
	OpGeq
	OpSll
	OpSrl
	OpConcat
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpEql: "eql", OpNeq: "neq", OpLss: "lss", OpLeq: "leq",
	OpGtr: "gtr", OpGeq: "geq", OpSll: "sll", OpSrl: "srl", OpConcat: "@",
}

func (k BinOpKind) String() string { return binOpNames[k] }

// IsCompare reports whether the operator yields a 1-bit truth value.
func (k BinOpKind) IsCompare() bool {
	switch k {
	case OpEql, OpNeq, OpLss, OpLeq, OpGtr, OpGeq:
		return true
	}
	return false
}

// BinOp applies a binary operator.
type BinOp struct {
	Pos   Pos
	Op    BinOpKind
	X, Y  Expr
	Width int
}

func (*Num) exprNode()   {}
func (*Ref) exprNode()   {}
func (*UnOp) exprNode()  {}
func (*BinOp) exprNode() {}

// ExprPos returns the expression's source position.
func (e *Num) ExprPos() Pos { return e.Pos }

func (e *Ref) ExprPos() Pos   { return e.Pos }
func (e *UnOp) ExprPos() Pos  { return e.Pos }
func (e *BinOp) ExprPos() Pos { return e.Pos }

// ResultWidth reports the inferred width of the literal.
func (e *Num) ResultWidth() int { return e.Width }

func (e *Ref) ResultWidth() int   { return e.Width }
func (e *UnOp) ResultWidth() int  { return e.Width }
func (e *BinOp) ResultWidth() int { return e.Width }

func (e *Num) String() string { return fmt.Sprintf("%d", e.Value) }

func (e *Ref) String() string {
	var b strings.Builder
	b.WriteString(e.Name)
	if e.Index != nil {
		fmt.Fprintf(&b, "[%s]", e.Index)
	}
	if e.HasSel {
		fmt.Fprintf(&b, "<%d:%d>", e.Hi, e.Lo)
	}
	return b.String()
}

func (e *UnOp) String() string { return fmt.Sprintf("(%s %s)", e.Op, e.X) }

func (e *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.X, e.Op, e.Y)
}

// Lookup returns the declaration for name, if any (valid after Analyze).
func (p *Program) Lookup(name string) *Decl { return p.symbols[name] }

// Carriers returns the non-constant declarations in declaration order.
func (p *Program) Carriers() []*Decl {
	var out []*Decl
	for _, d := range p.Decls {
		if d.Kind != DeclConst {
			out = append(out, d)
		}
	}
	return out
}

// minWidth returns the minimal number of bits needed to represent v.
func minWidth(v uint64) int {
	w := 1
	for v > 1 {
		v >>= 1
		w++
	}
	return w
}
