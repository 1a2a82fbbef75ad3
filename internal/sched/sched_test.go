package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/isps"
	"repro/internal/vt"
)

func trace(t *testing.T, decls, body string) *vt.Program {
	t.Helper()
	src := fmt.Sprintf("processor T {\n%s\nmain m {\n%s\n}\n}", decls, body)
	prog, err := isps.Parse("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tr, err := vt.Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return tr
}

func TestASAPChainsCombinationally(t *testing.T) {
	// read A, read B, add, write C: all combinational except the write's
	// dependents; a single step suffices.
	tr := trace(t, "reg A<7:0> reg B<7:0> reg C<7:0>", "C := A + B")
	s := ASAP(tr.Main)
	if err := s.Verify(Limits{}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("steps %d, want 1 (combinational chain + end-of-step write)", s.Len())
	}
}

func TestASAPWriteForcesNextStep(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg B<7:0>", "A := B\nB := A")
	s := ASAP(tr.Main)
	if err := s.Verify(Limits{}); err != nil {
		t.Fatal(err)
	}
	// The second transfer reads A, which was written in step 0: it must
	// start at step 1.
	if s.Len() != 2 {
		t.Errorf("steps %d, want 2", s.Len())
	}
}

func TestControlOpEndsStep(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg Z", "if Z { A := 1 }\nA := 2")
	s := ASAP(tr.Main)
	if err := s.Verify(Limits{}); err != nil {
		t.Fatal(err)
	}
	var sel, write *vt.Op
	for _, op := range tr.Main.Ops {
		switch op.Kind {
		case vt.OpSelect:
			sel = op
		case vt.OpWrite:
			write = op
		}
	}
	if s.OfOp[write] <= s.OfOp[sel] {
		t.Errorf("write at %d, select at %d: control must end the step", s.OfOp[write], s.OfOp[sel])
	}
}

func TestALAPWithinASAPLength(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg B<7:0> reg C<7:0>",
		"A := B + 1\nC := A\nB := C and 3")
	asap := ASAP(tr.Main)
	alap, err := ALAP(tr.Main, asap.Len())
	if err != nil {
		t.Fatal(err)
	}
	if err := alap.Verify(Limits{}); err != nil {
		t.Fatal(err)
	}
	if alap.Len() != asap.Len() {
		t.Errorf("ALAP length %d != ASAP length %d", alap.Len(), asap.Len())
	}
	for _, op := range tr.Main.Ops {
		if alap.OfOp[op] < asap.OfOp[op] {
			t.Errorf("op %s: ALAP %d < ASAP %d", op, alap.OfOp[op], asap.OfOp[op])
		}
	}
}

func TestMobilityNonNegative(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg B<7:0> reg C<7:0>",
		"C := (A + B) and (A xor B)\nA := C")
	mob, err := Mobility(tr.Main)
	if err != nil {
		t.Fatal(err)
	}
	for op, m := range mob {
		if m < 0 {
			t.Errorf("op %s has negative mobility %d", op, m)
		}
	}
}

func TestListRespectsUnitCap(t *testing.T) {
	// Four independent adds; with one adder they serialize... adds are
	// combinational so the cap forces them into separate steps.
	tr := trace(t, "reg A<7:0> reg B<7:0> reg C<7:0> reg D<7:0>",
		"A := A + 1\nB := B + 1\nC := C + 1\nD := D + 1")
	lim := Limits{UnitsPerKind: map[vt.OpKind]int{vt.OpAdd: 1}}
	s := mustList(t, tr.Main, lim)
	if err := s.Verify(lim); err != nil {
		t.Fatal(err)
	}
	if s.Len() < 4 {
		t.Errorf("steps %d, want >= 4 with a single adder", s.Len())
	}
	free := mustList(t, tr.Main, Limits{})
	if err := free.Verify(Limits{}); err != nil {
		t.Fatal(err)
	}
	if free.Len() != 1 {
		t.Errorf("unconstrained steps %d, want 1", free.Len())
	}
}

func TestListSinglePortedMemory(t *testing.T) {
	tr := trace(t, "mem M[0:7]<7:0> reg A<7:0> reg B<7:0> reg P<2:0> reg Q<2:0>",
		"A := M[P]\nB := M[Q]")
	s := mustList(t, tr.Main, Limits{})
	if err := s.Verify(Limits{}); err != nil {
		t.Fatal(err)
	}
	// Two reads of single-ported M cannot share a step.
	var steps []int
	for _, op := range tr.Main.Ops {
		if op.Kind == vt.OpMemRead {
			steps = append(steps, s.OfOp[op])
		}
	}
	if len(steps) != 2 || steps[0] == steps[1] {
		t.Errorf("memread steps %v, want distinct", steps)
	}
}

func TestListMaxOpsPerStep(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg B<7:0>", "A := A + 1\nB := B and 3")
	lim := Limits{MaxOpsPerStep: 1}
	s := mustList(t, tr.Main, lim)
	if err := s.Verify(Limits{}); err != nil {
		t.Fatal(err)
	}
	for i, ops := range s.Steps {
		if len(ops) > 1 {
			t.Errorf("step %d has %d ops, cap 1", i, len(ops))
		}
	}
}

func TestListEmptyBody(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg Z", "if Z { A := 1 }")
	// The implicit otherwise body is empty.
	for _, b := range tr.Bodies {
		s := mustList(t, b, Limits{})
		if err := s.Verify(Limits{}); err != nil {
			t.Errorf("body %s: %v", b.Name, err)
		}
		if len(b.Ops) == 0 && s.Len() != 0 {
			t.Errorf("empty body %s got %d steps", b.Name, s.Len())
		}
	}
}

func TestProgramSchedulesEveryBody(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg Z",
		"if Z { A := 1 } else { A := 2 }\nwhile A neq 0 { A := A - 1 }")
	m, err := Program(tr, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(tr.Bodies) {
		t.Fatalf("scheduled %d bodies, want %d", len(m), len(tr.Bodies))
	}
	for b, s := range m {
		if err := s.Verify(Limits{}); err != nil {
			t.Errorf("body %s: %v", b.Name, err)
		}
	}
	if TotalSteps(m) < 3 {
		t.Errorf("total steps %d, implausibly small", TotalSteps(m))
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg B<7:0>", "A := B\nB := A")
	s := ASAP(tr.Main)
	// Corrupt: move the last op to step 0.
	last := tr.Main.Ops[len(tr.Main.Ops)-1]
	old := s.OfOp[last]
	s.Steps[old] = s.Steps[old][:len(s.Steps[old])-1]
	s.Steps[0] = append(s.Steps[0], last)
	s.OfOp[last] = 0
	if err := s.Verify(Limits{}); err == nil {
		t.Fatal("corrupted schedule passed verification")
	}
}

func TestVerifyCatchesMissingOp(t *testing.T) {
	tr := trace(t, "reg A<7:0>", "A := A + 1")
	s := ASAP(tr.Main)
	s.Steps[0] = s.Steps[0][:1]
	// OfOp still has it, but steps no longer cover all ops… rebuild OfOp to
	// simulate the miss.
	dropped := tr.Main.Ops[len(tr.Main.Ops)-1]
	delete(s.OfOp, dropped)
	if err := s.Verify(Limits{}); err == nil {
		t.Fatal("incomplete schedule passed verification")
	}
}

func TestVerifyCatchesOpCap(t *testing.T) {
	tr := trace(t, "reg A<7:0>", "A := A + 1")
	s := ASAP(tr.Main)
	if len(s.Steps[0]) < 2 {
		t.Fatalf("step 0 holds %d ops, want at least 2", len(s.Steps[0]))
	}
	if err := s.Verify(Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(Limits{MaxOpsPerStep: 1}); err == nil {
		t.Fatal("a step over the op cap passed verification")
	}
}

// opsOf returns the operators of b of kind k on the named carrier, in
// trace order; an empty name matches any carrier.
func opsOf(b *vt.Body, k vt.OpKind, carrier string) []*vt.Op {
	var out []*vt.Op
	for _, op := range b.Ops {
		if op.Kind == k && (carrier == "" || op.Carrier != nil && op.Carrier.Name == carrier) {
			out = append(out, op)
		}
	}
	return out
}

// TestFits drives the step rule one case at a time: each row places some
// operators in step 0 and asks whether one more may join a step.
func TestFits(t *testing.T) {
	tr := trace(t, "mem M[0:7]<7:0> mem N[0:7]<7:0> reg A<7:0> reg B<7:0> reg P<2:0> reg Q<2:0>",
		"A := M[P] + 1\nA := M[Q] + N[P]\nB := A + 1\nM[P] := B")
	b := tr.Main
	adds := opsOf(b, vt.OpAdd, "")
	readsM := opsOf(b, vt.OpMemRead, "M")
	readN := opsOf(b, vt.OpMemRead, "N")[0]
	writeM := opsOf(b, vt.OpMemWrite, "M")[0]
	writesA := opsOf(b, vt.OpWrite, "A")
	writeB := opsOf(b, vt.OpWrite, "B")[0]
	readA := opsOf(b, vt.OpRead, "A")[0]
	adders := func(n int) map[vt.OpKind]int { return map[vt.OpKind]int{vt.OpAdd: n} }
	for _, c := range []struct {
		name   string
		placed []*vt.Op // in step 0
		op     *vt.Op
		step   int
		lim    Limits
		want   bool
	}{
		{"op cap reached", []*vt.Op{readA}, adds[0], 0, Limits{MaxOpsPerStep: 1}, false},
		{"op cap not reached", []*vt.Op{readA}, adds[0], 0, Limits{MaxOpsPerStep: 2}, true},
		{"unit cap reached", adds[:1], adds[1], 0, Limits{UnitsPerKind: adders(1)}, false},
		{"unit cap not reached", adds[:2], adds[2], 0, Limits{UnitsPerKind: adders(3)}, true},
		{"unit cap of 0 is no cap", adds[:2], adds[2], 0, Limits{UnitsPerKind: adders(0)}, true},
		{"absent kind is uncapped", adds[:2], adds[2], 0, Limits{UnitsPerKind: map[vt.OpKind]int{vt.OpSub: 1}}, true},
		{"second read of one memory", readsM[:1], readsM[1], 0, Limits{}, false},
		{"write to a memory read in the step", readsM[:1], writeM, 0, Limits{}, false},
		{"access to another memory", readsM[:1], readN, 0, Limits{}, true},
		{"second write to one register", writesA[:1], writesA[1], 0, Limits{}, false},
		{"write to another register", writesA[:1], writeB, 0, Limits{}, true},
		{"read of a register written in the step", writesA[:1], readA, 0, Limits{}, true},
		{"step past the end", []*vt.Op{adds[0], readsM[0], writesA[0]}, adds[1], 1,
			Limits{MaxOpsPerStep: 1, UnitsPerKind: adders(1)}, true},
	} {
		s := New(b)
		for _, op := range c.placed {
			s.Place(op, 0)
		}
		if got := s.Fits(c.op, c.step, c.lim); got != c.want {
			t.Errorf("%s: Fits(%s, %d) = %t, want %t", c.name, c.op, c.step, got, c.want)
		}
	}
}

// Property: for random straight-line programs, list scheduling under a
// 1-adder limit verifies and is never shorter than the unconstrained ASAP.
func TestListScheduleProperty(t *testing.T) {
	f := func(seed uint32, n uint8) bool {
		stmts := int(n%12) + 1
		body := ""
		s := seed
		for i := 0; i < stmts; i++ {
			s = s*1664525 + 1013904223
			dst := int(s>>4) % 4
			a := int(s>>10) % 4
			b := int(s>>16) % 4
			body += fmt.Sprintf("R%d := R%d + R%d\n", dst, a, b)
		}
		src := fmt.Sprintf("processor T { reg R0<7:0> reg R1<7:0> reg R2<7:0> reg R3<7:0> main m { %s } }", body)
		prog, err := isps.Parse("t", src)
		if err != nil {
			return false
		}
		tr, err := vt.Build(prog)
		if err != nil {
			return false
		}
		lim := Limits{UnitsPerKind: map[vt.OpKind]int{vt.OpAdd: 1}}
		constrained, err := List(tr.Main, lim)
		if err != nil || constrained.Verify(lim) != nil {
			return false
		}
		free := ASAP(tr.Main)
		if free.Verify(Limits{}) != nil {
			return false
		}
		return constrained.Len() >= free.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ALAP at ASAP length always verifies (feasibility).
func TestALAPFeasibilityProperty(t *testing.T) {
	f := func(seed uint32) bool {
		s := seed
		body := ""
		for i := 0; i < 6; i++ {
			s = s*1664525 + 1013904223
			dst := int(s>>4) % 3
			a := int(s>>10) % 3
			body += fmt.Sprintf("R%d := R%d and 7\n", dst, a)
		}
		src := fmt.Sprintf("processor T { reg R0<7:0> reg R1<7:0> reg R2<7:0> main m { %s } }", body)
		prog, err := isps.Parse("t", src)
		if err != nil {
			return false
		}
		tr, err := vt.Build(prog)
		if err != nil {
			return false
		}
		asap := ASAP(tr.Main)
		alap, err := ALAP(tr.Main, asap.Len())
		return err == nil && alap.Verify(Limits{}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// mustList is the test shorthand for the common always-feasible case.
func mustList(t *testing.T, b *vt.Body, lim Limits) *Schedule {
	t.Helper()
	s, err := List(b, lim)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestALAPInfeasibleLengthIsError(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg B<7:0>", "A := B\nB := A")
	asap := ASAP(tr.Main)
	if asap.Len() < 2 {
		t.Fatalf("fixture too short: ASAP length %d", asap.Len())
	}
	if _, err := ALAP(tr.Main, asap.Len()-1); err == nil {
		t.Fatal("ALAP accepted a length below the critical path")
	}
}

func TestForDispatchesByName(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg B<7:0> reg C<7:0>",
		"A := B + 1\nC := A\nB := C and 3")
	for _, name := range append(Schedulers(), "") {
		s, err := For(name, tr.Main, Limits{})
		if err != nil {
			t.Fatalf("For(%q): %v", name, err)
		}
		if err := s.Verify(Limits{}); err != nil {
			t.Errorf("For(%q): %v", name, err)
		}
	}
	if _, err := For("greedy", tr.Main, Limits{}); err == nil {
		t.Fatal("unknown scheduler name accepted")
	}
}

func TestProgramWithASAPAndALAP(t *testing.T) {
	tr := trace(t, "reg A<7:0> reg Z",
		"if Z { A := 1 } else { A := 2 }\nwhile A neq 0 { A := A - 1 }")
	for _, name := range []string{SchedASAP, SchedALAP} {
		m, err := ProgramWith(name, tr, Limits{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m) != len(tr.Bodies) {
			t.Fatalf("%s: scheduled %d bodies, want %d", name, len(m), len(tr.Bodies))
		}
		for b, s := range m {
			if err := s.Verify(Limits{}); err != nil {
				t.Errorf("%s body %s: %v", name, b.Name, err)
			}
		}
	}
}
