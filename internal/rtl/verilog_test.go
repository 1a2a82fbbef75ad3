package rtl_test

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rtl"
	"repro/internal/vt"
)

func verilogFor(t *testing.T, src string) string {
	t.Helper()
	d, _ := designFor(t, src)
	var sb strings.Builder
	if err := d.WriteVerilog(&sb, "top"); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

const vsrc = `
processor P {
    reg A<7:0>
    reg B<3:0>
    port in X<3:0>
    port out W<7:0>
    mem M[0:15]<7:0>
    main m {
        A := A + X
        B := M[X]<3:0>
        M[X] := A
        W := B @ A<3:0>
        if A eql 0 { A := 1 }
    }
}`

func TestVerilogStructure(t *testing.T) {
	out := verilogFor(t, vsrc)
	for _, want := range []string{
		"module top (", "endmodule",
		"input wire clk", "input wire rst",
		"output wire [7:0] p_W", "input wire [3:0] p_X",
		"input wire ld_r_A", "input wire we_m_M",
		"reg  [7:0] m_M [0:15];",
		"always @(posedge clk)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "/*bad") {
		t.Error("emitted a bad endpoint")
	}
	// Every mux gains a select input of the right width.
	if !regexp.MustCompile(`input wire \[0:0\] sel_mux0`).MatchString(out) {
		t.Error("mux select port missing")
	}
	// The concat is a junction, not a mux.
	if !strings.Contains(out, "assign j0_out = {j0_in0, j0_in1};") {
		t.Error("junction concatenation missing")
	}
}

func TestVerilogDeterministic(t *testing.T) {
	a := verilogFor(t, vsrc)
	b := verilogFor(t, vsrc)
	if a != b {
		t.Fatal("nondeterministic Verilog output")
	}
}

func TestVerilogIdentifiersLegal(t *testing.T) {
	out := verilogFor(t, vsrc)
	ident := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	for _, m := range regexp.MustCompile(`(?m)^\s*(?:input|output)\s+wire\s+(?:\[[0-9]+:0\]\s+)?(\S+?),?$`).FindAllStringSubmatch(out, -1) {
		name := strings.TrimSuffix(m[1], ",")
		if !ident.MatchString(name) {
			t.Errorf("illegal identifier %q", name)
		}
	}
}

func TestVerilogMultiFunctionALU(t *testing.T) {
	out := verilogFor(t, `
processor P {
    reg A<7:0>
    reg B<7:0>
    reg OP<1:0>
    main m {
        decode OP {
            0: A := A + B
            1: A := A - B
            2: A := A and B
            otherwise: nop
        }
    }
}`)
	if !strings.Contains(out, "fn_u_") {
		t.Errorf("multi-function unit lacks a function select:\n%s", out)
	}
	for _, want := range []string{"// add", "// sub", "// and"} {
		if !strings.Contains(out, want) {
			t.Errorf("ALU case for %q missing", want)
		}
	}
}

// beginWord and endWord match begin and end as whole words, so endcase,
// endmodule and names that merely contain them do not count.
var beginWord, endWord = regexp.MustCompile(`\bbegin\b`), regexp.MustCompile(`\bend\b`)

func TestVerilogEveryBenchmark(t *testing.T) {
	allocators := map[string]func(*vt.Program) (*rtl.Design, error){
		"daa": func(tr *vt.Program) (*rtl.Design, error) {
			res, err := core.Synthesize(tr, core.Options{})
			if err != nil {
				return nil, err
			}
			return res.Design, nil
		},
		"leftedge": func(tr *vt.Program) (*rtl.Design, error) { return alloc.LeftEdge(tr, alloc.Options{}) },
		"naive":    func(tr *vt.Program) (*rtl.Design, error) { return alloc.Naive(tr, alloc.Options{}) },
	}
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			for a, build := range allocators {
				t.Run(a, func(t *testing.T) {
					tr, err := bench.Load(name)
					if err != nil {
						t.Fatal(err)
					}
					d, err := build(tr)
					if err != nil {
						t.Fatal(err)
					}
					var sb strings.Builder
					if err := d.WriteVerilog(&sb, name); err != nil {
						t.Fatal(err)
					}
					out := sb.String()
					if strings.Count(out, "module ") != 1 || !strings.HasSuffix(strings.TrimSpace(out), "endmodule") {
						t.Error("malformed module structure")
					}
					if strings.Contains(out, "/*bad") {
						t.Error("bad endpoint in output")
					}
					if b, e := len(beginWord.FindAllStringIndex(out, -1)), len(endWord.FindAllStringIndex(out, -1)); b != e {
						t.Errorf("unbalanced begin/end: %d begin, %d end", b, e)
					}
					if strings.Count(out, "case (") != strings.Count(out, "endcase") {
						t.Error("unbalanced case/endcase")
					}
				})
			}
		})
	}
}
