package rtl_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rtl"
)

func flowFor(t *testing.T, src string) ([]rtl.Transition, *rtl.Design) {
	t.Helper()
	d, _ := designFor(t, src)
	edges, err := d.ControlFlow()
	if err != nil {
		t.Fatal(err)
	}
	return edges, d
}

func kinds(edges []rtl.Transition) map[rtl.EdgeKind]int {
	out := map[rtl.EdgeKind]int{}
	for _, e := range edges {
		out[e.Kind]++
	}
	return out
}

func TestControlFlowStraightLine(t *testing.T) {
	edges, d := flowFor(t, `
processor P {
    reg A<7:0>
    main m { A := A + 1  A := A + 2  A := A + 3 }
}`)
	k := kinds(edges)
	// n states chain with n-1 seq edges plus the final cycle-end edge.
	if k[rtl.EdgeSeq] != len(d.States)-1 {
		t.Errorf("seq edges %d, want %d", k[rtl.EdgeSeq], len(d.States)-1)
	}
	if k[rtl.EdgeReturn] != 1 {
		t.Errorf("cycle-end edges %d, want 1", k[rtl.EdgeReturn])
	}
}

func TestControlFlowBranchesAndJoin(t *testing.T) {
	edges, _ := flowFor(t, `
processor P {
    reg A<7:0>
    reg OP<1:0>
    main m {
        decode OP {
            0: A := A + 1
            1: A := A - 1
            otherwise: nop
        }
        A := 0
    }
}`)
	k := kinds(edges)
	if k[rtl.EdgeBranch] != 3 {
		t.Errorf("branch edges %d, want 3 (two cases + otherwise)", k[rtl.EdgeBranch])
	}
	// Every branch arm rejoins at the trailing assignment.
	joins := 0
	for _, e := range edges {
		if e.Kind == rtl.EdgeSeq && e.To != nil && strings.Contains(e.From.Body, "dec") {
			joins++
		}
	}
	if joins < 2 {
		t.Errorf("join edges from arms %d, want >= 2", joins)
	}
}

func TestControlFlowLoop(t *testing.T) {
	edges, _ := flowFor(t, `
processor P {
    reg A<7:0>
    main m { while A neq 0 { A := A - 1 } }
}`)
	k := kinds(edges)
	if k[rtl.EdgeLoopEnter] != 1 {
		t.Errorf("loop-enter edges %d, want 1", k[rtl.EdgeLoopEnter])
	}
	if k[rtl.EdgeLoopExit] != 1 {
		t.Errorf("loop-exit edges %d, want 1", k[rtl.EdgeLoopExit])
	}
	// The loop body's fall-through re-enters the condition.
	back := false
	for _, e := range edges {
		if e.To != nil && strings.Contains(e.To.Body, "cond") && strings.Contains(e.From.Body, "body") {
			back = true
		}
	}
	if !back {
		t.Error("no back edge from loop body to condition")
	}
}

func TestControlFlowLeave(t *testing.T) {
	edges, _ := flowFor(t, `
processor P {
    reg A<7:0>
    main m {
        while 1 { A := A - 1 leave }
        A := 9
    }
}`)
	found := false
	for _, e := range edges {
		if e.Kind == rtl.EdgeLeave {
			found = true
			if e.To == nil || !strings.HasSuffix(e.To.Body, "m") {
				t.Errorf("leave edge targets %v, want the loop's continuation", e.To)
			}
		}
	}
	if !found {
		t.Fatal("no leave edge")
	}
}

func TestControlFlowCallAndReturn(t *testing.T) {
	edges, _ := flowFor(t, `
processor P {
    reg A<7:0>
    proc sub { A := A + 1 }
    main m { call sub  A := 0  call sub }
}`)
	k := kinds(edges)
	if k[rtl.EdgeCall] != 2 {
		t.Errorf("call edges %d, want 2", k[rtl.EdgeCall])
	}
	// Shared callee: a return continuation per call site (the second call
	// ends the machine cycle, so its continuation is dynamic) plus the
	// body's own dynamic exit.
	static, dynamic := 0, 0
	for _, e := range edges {
		if e.Kind == rtl.EdgeReturn && e.From.Body == "sub" {
			if e.To != nil {
				static++
			} else {
				dynamic++
			}
		}
	}
	if static != 1 || dynamic != 2 {
		t.Errorf("callee returns static=%d dynamic=%d, want 1/2", static, dynamic)
	}
}

func TestAllStatesReachableOnBenchmarks(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			tr, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(tr, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			reach, err := res.Design.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.Design.States {
				if !reach[s] {
					t.Errorf("state %s unreachable from the entry", s)
				}
			}
		})
	}
}

func TestControlFlowDot(t *testing.T) {
	_, d := flowFor(t, `
processor P {
    reg A<7:0>
    reg Z
    main m { if Z { A := 1 } else { A := 2 } }
}`)
	var sb strings.Builder
	if err := d.WriteControlFlowDot(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "branch", "doublecircle"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
}
