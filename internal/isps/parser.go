package isps

import "fmt"

// Parse parses an ISPS description and runs semantic analysis. The file name
// is used only for positions in error messages.
func Parse(file, src string) (*Program, error) {
	prog, err := ParseOnly(file, src)
	if err != nil {
		return nil, err
	}
	if err := Analyze(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseOnly parses without semantic analysis; widths and symbol links are
// not populated. Intended for tooling that needs the raw syntax tree.
func ParseOnly(file, src string) (*Program, error) {
	toks, errs := lexAll(file, src)
	p := &parser{toks: toks, errs: errs}
	prog := p.parseProgram()
	if err := p.errs.Err(); err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	toks []Token
	pos  int
	errs ErrorList
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(k TokenKind) bool {
	if p.cur().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k TokenKind) Token {
	if p.cur().Kind == k {
		return p.advance()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return Token{Kind: k, Pos: p.cur().Pos}
}

func (p *parser) errorf(pos Pos, format string, args ...any) {
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	if len(p.errs) > 50 {
		panic(bailout{})
	}
}

type bailout struct{}

func (p *parser) parseProgram() (prog *Program) {
	prog = &Program{Consts: map[string]uint64{}}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
		}
	}()
	p.expect(TokProcessor)
	prog.Name = p.expect(TokIdent).Text
	p.expect(TokLBrace)
	for {
		switch p.cur().Kind {
		case TokReg, TokMem, TokPort, TokConst:
			prog.Decls = append(prog.Decls, p.parseDecl())
		case TokSemi:
			p.advance()
		case TokProc, TokMain:
			prog.Procs = append(prog.Procs, p.parseProc())
		case TokRBrace:
			p.advance()
			if p.cur().Kind != TokEOF {
				p.errorf(p.cur().Pos, "unexpected %s after processor body", p.cur())
			}
			return prog
		case TokEOF:
			p.errorf(p.cur().Pos, "unexpected end of file in processor body")
			return prog
		default:
			p.errorf(p.cur().Pos, "expected declaration or procedure, found %s", p.cur())
			p.advance()
		}
	}
}

// parseRange parses <hi:lo>; a missing range means a 1-bit carrier <0:0>.
func (p *parser) parseRange() (hi, lo int) {
	if !p.accept(TokLAngle) {
		return 0, 0
	}
	hiTok := p.expect(TokNumber)
	p.expect(TokColon)
	loTok := p.expect(TokNumber)
	p.expect(TokRAngle)
	hi, lo = int(hiTok.Val), int(loTok.Val)
	if hi < lo {
		p.errorf(hiTok.Pos, "bit range <%d:%d> has hi < lo", hi, lo)
		hi = lo
	}
	return hi, lo
}

func (p *parser) parseDecl() *Decl {
	start := p.cur()
	switch start.Kind {
	case TokReg:
		p.advance()
		d := &Decl{Pos: start.Pos, Kind: DeclReg, Name: p.expect(TokIdent).Text}
		d.Hi, d.Lo = p.parseRange()
		return d
	case TokMem:
		p.advance()
		d := &Decl{Pos: start.Pos, Kind: DeclMem, Name: p.expect(TokIdent).Text}
		p.expect(TokLBracket)
		loTok := p.expect(TokNumber)
		p.expect(TokColon)
		hiTok := p.expect(TokNumber)
		p.expect(TokRBracket)
		d.ALo, d.AHi = int(loTok.Val), int(hiTok.Val)
		switch {
		case d.AHi < d.ALo:
			p.errorf(loTok.Pos, "memory range [%d:%d] has lo > hi", d.ALo, d.AHi)
			d.AHi = d.ALo
		case d.ALo != 0:
			// The design, its simulator and its Verilog address a memory
			// from word 0.
			p.errorf(loTok.Pos, "memory range [%d:%d] must start at 0", d.ALo, d.AHi)
		}
		d.Hi, d.Lo = p.parseRange()
		return d
	case TokPort:
		p.advance()
		kind := DeclPortIn
		switch p.cur().Kind {
		case TokIn:
			p.advance()
		case TokOut:
			kind = DeclPortOut
			p.advance()
		default:
			p.errorf(p.cur().Pos, "expected 'in' or 'out' after 'port', found %s", p.cur())
		}
		d := &Decl{Pos: start.Pos, Kind: kind, Name: p.expect(TokIdent).Text}
		d.Hi, d.Lo = p.parseRange()
		return d
	case TokConst:
		p.advance()
		d := &Decl{Pos: start.Pos, Kind: DeclConst, Name: p.expect(TokIdent).Text}
		p.expect(TokEquals)
		d.Value = p.expect(TokNumber).Val
		return d
	}
	panic("unreachable")
}

func (p *parser) parseProc() *Proc {
	start := p.advance() // proc or main
	pr := &Proc{Pos: start.Pos, IsMain: start.Kind == TokMain}
	if pr.IsMain {
		pr.Name = "main"
		if p.cur().Kind == TokIdent { // optional name after 'main'
			pr.Name = p.advance().Text
		}
	} else {
		pr.Name = p.expect(TokIdent).Text
	}
	pr.Body = p.parseBlock()
	return pr
}

func (p *parser) parseBlock() []Stmt {
	p.expect(TokLBrace)
	var stmts []Stmt
	for {
		switch p.cur().Kind {
		case TokRBrace:
			p.advance()
			return stmts
		case TokEOF:
			p.errorf(p.cur().Pos, "unexpected end of file in block")
			return stmts
		case TokSemi:
			p.advance()
		default:
			stmts = append(stmts, p.parseStmt())
		}
	}
}

// parseStmtOrBlock allows a decode arm to be a single statement or a block.
func (p *parser) parseStmtOrBlock() []Stmt {
	if p.cur().Kind == TokLBrace {
		return p.parseBlock()
	}
	return []Stmt{p.parseStmt()}
}

func (p *parser) parseStmt() Stmt {
	t := p.cur()
	switch t.Kind {
	case TokIdent:
		return p.parseAssign()
	case TokIf:
		return p.parseIf()
	case TokDecode:
		return p.parseDecode()
	case TokWhile:
		p.advance()
		cond := p.parseExpr()
		body := p.parseBlock()
		return &While{Pos: t.Pos, Cond: cond, Body: body}
	case TokRepeat:
		p.advance()
		n := p.expect(TokNumber)
		body := p.parseBlock()
		if n.Val == 0 {
			p.errorf(n.Pos, "repeat count must be positive")
		}
		return &Repeat{Pos: t.Pos, Count: n.Val, Body: body}
	case TokCall:
		p.advance()
		name := p.expect(TokIdent)
		return &Call{Pos: t.Pos, Name: name.Text}
	case TokNop:
		p.advance()
		return &Nop{Pos: t.Pos}
	case TokLeave:
		p.advance()
		return &Leave{Pos: t.Pos}
	}
	p.errorf(t.Pos, "expected statement, found %s", t)
	p.advance()
	return &Nop{Pos: t.Pos}
}

func (p *parser) parseAssign() Stmt {
	lv := p.parseLValue()
	p.expect(TokAssign)
	rhs := p.parseExpr()
	return &Assign{Pos: lv.Pos, LHS: lv, RHS: rhs}
}

func (p *parser) parseLValue() *LValue {
	name := p.expect(TokIdent)
	lv := &LValue{Pos: name.Pos, Name: name.Text}
	if p.accept(TokLBracket) {
		lv.Index = p.parseExpr()
		p.expect(TokRBracket)
	}
	// A '<' here is a bit-slice only if it looks like <num:num>; an lvalue
	// is always followed by ':=' so there is no comparison ambiguity.
	if p.cur().Kind == TokLAngle {
		p.advance()
		hiTok := p.expect(TokNumber)
		p.expect(TokColon)
		loTok := p.expect(TokNumber)
		p.expect(TokRAngle)
		lv.HasSel = true
		lv.Hi, lv.Lo = int(hiTok.Val), int(loTok.Val)
		if lv.Hi < lv.Lo {
			p.errorf(hiTok.Pos, "bit slice <%d:%d> has hi < lo", lv.Hi, lv.Lo)
			lv.Hi = lv.Lo
		}
	}
	return lv
}

func (p *parser) parseIf() Stmt {
	t := p.expect(TokIf)
	cond := p.parseExpr()
	then := p.parseBlock()
	var els []Stmt
	if p.accept(TokElse) {
		if p.cur().Kind == TokIf {
			els = []Stmt{p.parseIf()}
		} else {
			els = p.parseBlock()
		}
	}
	return &If{Pos: t.Pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseDecode() Stmt {
	t := p.expect(TokDecode)
	sel := p.parseExpr()
	d := &Decode{Pos: t.Pos, Selector: sel}
	p.expect(TokLBrace)
	for {
		switch p.cur().Kind {
		case TokRBrace:
			p.advance()
			return d
		case TokEOF:
			p.errorf(p.cur().Pos, "unexpected end of file in decode")
			return d
		case TokOtherwise:
			ot := p.advance()
			p.expect(TokColon)
			if d.Otherwise != nil {
				p.errorf(ot.Pos, "duplicate otherwise arm")
			}
			d.Otherwise = p.parseStmtOrBlock()
		case TokNumber:
			c := &DecodeCase{Pos: p.cur().Pos}
			c.Values = append(c.Values, p.advance().Val)
			for p.accept(TokComma) {
				c.Values = append(c.Values, p.expect(TokNumber).Val)
			}
			p.expect(TokColon)
			c.Body = p.parseStmtOrBlock()
			d.Cases = append(d.Cases, c)
		default:
			p.errorf(p.cur().Pos, "expected case value or 'otherwise', found %s", p.cur())
			p.advance()
		}
	}
}

// Expression parsing by precedence climbing. From loosest to tightest:
//
//	@ (concat) < or < xor < and < comparisons < shifts < + - < unary
func (p *parser) parseExpr() Expr { return p.parseConcat() }

func (p *parser) parseConcat() Expr {
	x := p.parseOr()
	for p.cur().Kind == TokConcat {
		t := p.advance()
		y := p.parseOr()
		x = &BinOp{Pos: t.Pos, Op: OpConcat, X: x, Y: y}
	}
	return x
}

func (p *parser) parseOr() Expr {
	x := p.parseXor()
	for p.cur().Kind == TokOr {
		t := p.advance()
		y := p.parseXor()
		x = &BinOp{Pos: t.Pos, Op: OpOr, X: x, Y: y}
	}
	return x
}

func (p *parser) parseXor() Expr {
	x := p.parseAnd()
	for p.cur().Kind == TokXor {
		t := p.advance()
		y := p.parseAnd()
		x = &BinOp{Pos: t.Pos, Op: OpXor, X: x, Y: y}
	}
	return x
}

func (p *parser) parseAnd() Expr {
	x := p.parseCompare()
	for p.cur().Kind == TokAnd {
		t := p.advance()
		y := p.parseCompare()
		x = &BinOp{Pos: t.Pos, Op: OpAnd, X: x, Y: y}
	}
	return x
}

func (p *parser) parseCompare() Expr {
	x := p.parseShift()
	for {
		var op BinOpKind
		switch p.cur().Kind {
		case TokEql:
			op = OpEql
		case TokNeq:
			op = OpNeq
		case TokLss:
			op = OpLss
		case TokLeq:
			op = OpLeq
		case TokGtr:
			op = OpGtr
		case TokGeq:
			op = OpGeq
		default:
			return x
		}
		t := p.advance()
		y := p.parseShift()
		x = &BinOp{Pos: t.Pos, Op: op, X: x, Y: y}
	}
}

func (p *parser) parseShift() Expr {
	x := p.parseAdd()
	for {
		var op BinOpKind
		switch p.cur().Kind {
		case TokSll:
			op = OpSll
		case TokSrl:
			op = OpSrl
		default:
			return x
		}
		t := p.advance()
		y := p.parseAdd()
		x = &BinOp{Pos: t.Pos, Op: op, X: x, Y: y}
	}
}

func (p *parser) parseAdd() Expr {
	x := p.parseUnary()
	for {
		var op BinOpKind
		switch p.cur().Kind {
		case TokPlus:
			op = OpAdd
		case TokMinus:
			op = OpSub
		default:
			return x
		}
		t := p.advance()
		y := p.parseUnary()
		x = &BinOp{Pos: t.Pos, Op: op, X: x, Y: y}
	}
}

func (p *parser) parseUnary() Expr {
	switch p.cur().Kind {
	case TokNot:
		t := p.advance()
		return &UnOp{Pos: t.Pos, Op: UnNot, X: p.parseUnary()}
	case TokMinus:
		t := p.advance()
		return &UnOp{Pos: t.Pos, Op: UnNeg, X: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() Expr {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.advance()
		return &Num{Pos: t.Pos, Value: t.Val}
	case TokLParen:
		p.advance()
		e := p.parseExpr()
		p.expect(TokRParen)
		return e
	case TokIdent:
		p.advance()
		r := &Ref{Pos: t.Pos, Name: t.Text}
		if p.accept(TokLBracket) {
			r.Index = p.parseExpr()
			p.expect(TokRBracket)
		}
		// Bit slice: only treat '<' as a slice when it is followed by
		// "num : num >", so that "A < B" style comparisons (which use the
		// word operator lss anyway) cannot arise. '<' in expression
		// position after a reference is always a slice in this grammar.
		if p.cur().Kind == TokLAngle && p.peek().Kind == TokNumber {
			p.advance()
			hiTok := p.expect(TokNumber)
			p.expect(TokColon)
			loTok := p.expect(TokNumber)
			p.expect(TokRAngle)
			r.HasSel = true
			r.Hi, r.Lo = int(hiTok.Val), int(loTok.Val)
			if r.Hi < r.Lo {
				p.errorf(hiTok.Pos, "bit slice <%d:%d> has hi < lo", r.Hi, r.Lo)
				r.Hi = r.Lo
			}
		}
		return r
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.advance()
	return &Num{Pos: t.Pos, Value: 0}
}
