package isps

import (
	"strings"
	"testing"
)

const tinySrc = `
processor Tiny {
    reg A<7:0>
    reg B<7:0>
    reg Z
    mem M[0:15]<7:0>
    port in  X<3:0>
    port out Y<7:0>
    const K = 5

    proc add { A := A + B }
    main run {
        call add
        if A eql 0 { Z := 1 } else { Z := 0 }
        decode X<1:0> {
            0: B := M[X]
            1, 2: B := A
            otherwise: nop
        }
        while B neq 0 { B := B - 1 }
        repeat 3 { A := A sll 1 }
        Y := A @ 0b0 ! concatenation? no: A is 8 bits, slice below
    }
}
`

func parseTiny(t *testing.T) *Program {
	t.Helper()
	// The concat line above would widen past Y; replace it for the valid case.
	src := strings.Replace(tinySrc, "Y := A @ 0b0", "Y := A", 1)
	prog, err := Parse("tiny.isps", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return prog
}

func TestParseTinyStructure(t *testing.T) {
	prog := parseTiny(t)
	if prog.Name != "Tiny" {
		t.Errorf("name %q, want Tiny", prog.Name)
	}
	if len(prog.Decls) != 7 {
		t.Errorf("decls %d, want 7", len(prog.Decls))
	}
	if len(prog.Procs) != 2 {
		t.Errorf("procs %d, want 2", len(prog.Procs))
	}
	if prog.Main == nil || prog.Main.Name != "run" {
		t.Fatalf("main %v, want run", prog.Main)
	}
	if got := len(prog.Carriers()); got != 6 {
		t.Errorf("carriers %d, want 6", got)
	}
}

func TestParseDeclWidths(t *testing.T) {
	prog := parseTiny(t)
	a := prog.Lookup("A")
	if a == nil || a.Width() != 8 {
		t.Fatalf("A width: %v", a)
	}
	z := prog.Lookup("Z")
	if z == nil || z.Width() != 1 {
		t.Fatalf("Z width: %v (1-bit default)", z)
	}
	m := prog.Lookup("M")
	if m == nil || m.Width() != 8 || m.Words() != 16 {
		t.Fatalf("M: %v", m)
	}
	if k := prog.Consts["K"]; k != 5 {
		t.Errorf("const K = %d, want 5", k)
	}
}

func TestParseStatementShapes(t *testing.T) {
	prog := parseTiny(t)
	body := prog.Main.Body
	if len(body) != 6 {
		t.Fatalf("main has %d statements, want 6", len(body))
	}
	if _, ok := body[0].(*Call); !ok {
		t.Errorf("stmt 0 is %T, want *Call", body[0])
	}
	iff, ok := body[1].(*If)
	if !ok {
		t.Fatalf("stmt 1 is %T, want *If", body[1])
	}
	if len(iff.Then) != 1 || len(iff.Else) != 1 {
		t.Errorf("if arms: %d/%d, want 1/1", len(iff.Then), len(iff.Else))
	}
	dec, ok := body[2].(*Decode)
	if !ok {
		t.Fatalf("stmt 2 is %T, want *Decode", body[2])
	}
	if len(dec.Cases) != 2 || dec.Otherwise == nil {
		t.Errorf("decode: %d cases, otherwise=%v", len(dec.Cases), dec.Otherwise != nil)
	}
	if len(dec.Cases[1].Values) != 2 {
		t.Errorf("case 1 values %v, want [1 2]", dec.Cases[1].Values)
	}
	if _, ok := body[3].(*While); !ok {
		t.Errorf("stmt 3 is %T, want *While", body[3])
	}
	rep, ok := body[4].(*Repeat)
	if !ok || rep.Count != 3 {
		t.Errorf("stmt 4: %T %v, want repeat 3", body[4], body[4])
	}
}

func TestParseCallResolved(t *testing.T) {
	prog := parseTiny(t)
	call := prog.Main.Body[0].(*Call)
	if call.Callee == nil || call.Callee.Name != "add" {
		t.Fatalf("call not resolved: %+v", call)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	prog, err := Parse("t", `
processor P {
    reg A<7:0>
    reg B<7:0>
    reg C<7:0>
    main m { C := A + B and A }
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rhs := prog.Main.Body[0].(*Assign).RHS.(*BinOp)
	// 'and' binds looser than '+': (A+B) and A.
	if rhs.Op != OpAnd {
		t.Fatalf("top op %s, want and", rhs.Op)
	}
	inner, ok := rhs.X.(*BinOp)
	if !ok || inner.Op != OpAdd {
		t.Fatalf("left is %v, want (A + B)", rhs.X)
	}
}

func TestParseConcatLoosest(t *testing.T) {
	prog, err := Parse("t", `
processor P {
    reg A<3:0>
    reg B<3:0>
    reg C<8:0>
    main m { C := A @ B + 1 }
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rhs := prog.Main.Body[0].(*Assign).RHS.(*BinOp)
	if rhs.Op != OpConcat {
		t.Fatalf("top op %s, want @", rhs.Op)
	}
	if rhs.Width != 8 {
		t.Fatalf("concat width %d, want 8", rhs.Width)
	}
}

func TestParseUnaryAndParens(t *testing.T) {
	prog, err := Parse("t", `
processor P {
    reg A<7:0>
    reg B<7:0>
    main m { B := not (A + 1) }
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rhs := prog.Main.Body[0].(*Assign).RHS.(*UnOp)
	if rhs.Op != UnNot || rhs.Width != 8 {
		t.Fatalf("got %v width %d", rhs, rhs.Width)
	}
}

func TestParseBitSliceExpr(t *testing.T) {
	prog, err := Parse("t", `
processor P {
    reg A<7:0>
    reg B<3:0>
    main m { B := A<7:4> }
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rhs := prog.Main.Body[0].(*Assign).RHS.(*Ref)
	if !rhs.HasSel || rhs.Hi != 7 || rhs.Lo != 4 || rhs.Width != 4 {
		t.Fatalf("slice: %+v", rhs)
	}
}

func TestParseMemIndexExpr(t *testing.T) {
	prog, err := Parse("t", `
processor P {
    reg A<7:0>
    reg PC<3:0>
    mem M[0:15]<7:0>
    main m { A := M[PC + 1] }
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rhs := prog.Main.Body[0].(*Assign).RHS.(*Ref)
	if rhs.Index == nil {
		t.Fatal("no index on memory read")
	}
	if _, ok := rhs.Index.(*BinOp); !ok {
		t.Fatalf("index is %T, want *BinOp", rhs.Index)
	}
}

func TestParseSemicolonsOptional(t *testing.T) {
	_, err := Parse("t", `
processor P {
    reg A<7:0>;
    main m { A := 1; A := 2; }
}`)
	if err != nil {
		t.Fatalf("Parse with semicolons: %v", err)
	}
}

func TestParseElseIfChain(t *testing.T) {
	prog, err := Parse("t", `
processor P {
    reg A<7:0>
    reg B<1:0>
    main m {
        if B eql 0 { A := 1 } else if B eql 1 { A := 2 } else { A := 3 }
    }
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	iff := prog.Main.Body[0].(*If)
	if len(iff.Else) != 1 {
		t.Fatalf("else arm has %d statements", len(iff.Else))
	}
	if _, ok := iff.Else[0].(*If); !ok {
		t.Fatalf("else arm is %T, want nested *If", iff.Else[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"missing-processor", "reg A", "expected 'processor'"},
		{"bad-range", "processor P { reg A<0:7> main m { A := 1 } }", "hi < lo"},
		{"bad-mem-range", "processor P { mem M[5:2]<7:0> main m { M[5] := 1 } }", "lo > hi"},
		{"mem-range-not-from-0", "processor P { mem M[16:31]<7:0> main m { M[20] := 1 } }", "t:1:21: memory range [16:31] must start at 0"},
		{"unclosed", "processor P { main m {", "unexpected end of file"},
		{"dup-otherwise", `processor P { reg A<1:0> main m { decode A { 0: nop otherwise: nop otherwise: nop } }}`, "duplicate otherwise"},
		{"zero-repeat", `processor P { reg A main m { repeat 0 { A := 1 } } }`, "repeat count"},
		{"stmt-garbage", `processor P { reg A main m { 5 } }`, "expected statement"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("t", c.src)
			if err == nil {
				t.Fatal("expected error, got none")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestParseManyErrorsBailsOut(t *testing.T) {
	// A long stream of junk must not panic or loop; the parser bails out
	// after a bounded number of diagnostics.
	src := "processor P { " + strings.Repeat("^ ", 500) + " }"
	if _, err := Parse("t", src); err == nil {
		t.Fatal("expected errors")
	}
}
