package rtlsim_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/isps"
	"repro/internal/rtl"
	"repro/internal/rtlsim"
	"repro/internal/sim"
	"repro/internal/vt"
)

// designsFor builds all three allocations of a trace.
func designsFor(t *testing.T, tr *vt.Program) map[string]*rtl.Design {
	t.Helper()
	daa, err := core.Synthesize(tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	le, err := alloc.LeftEdge(tr, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := alloc.Naive(tr, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*rtl.Design{"daa": daa.Design, "left-edge": le, "naive": nv}
}

// cosim runs the behavioral interpreter and the design simulator with the
// same stimulus and compares every architectural carrier afterwards.
func cosim(t *testing.T, benchName string, inputs map[string]uint64, memInit map[int]uint64, cycles int) {
	t.Helper()
	src, err := bench.Source(benchName)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isps.Parse(benchName, src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vt.Build(prog)
	if err != nil {
		t.Fatal(err)
	}

	ref := sim.New(prog)
	memName := ""
	for _, c := range tr.Carriers {
		if c.Kind == vt.CarMem {
			memName = c.Name
		}
	}
	for name, v := range inputs {
		if err := ref.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	for addr, v := range memInit {
		if err := ref.SetMem(memName, addr, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.RunN(cycles); err != nil {
		t.Fatalf("behavioral: %v", err)
	}

	for alloca, d := range designsFor(t, tr) {
		m, err := rtlsim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range inputs {
			if err := m.Set(name, v); err != nil {
				t.Fatal(err)
			}
		}
		for addr, v := range memInit {
			if err := m.SetMem(memName, addr, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.RunN(cycles); err != nil {
			t.Fatalf("%s design: %v", alloca, err)
		}
		compareCarriers(t, alloca, tr, ref, m, memInit)
	}
}

func compareCarriers(t *testing.T, alloca string, tr *vt.Program, ref *sim.Machine, m *rtlsim.Machine, memInit map[int]uint64) {
	t.Helper()
	for _, c := range tr.Carriers {
		switch c.Kind {
		case vt.CarReg, vt.CarPortOut:
			want, err := ref.Get(c.Name)
			if err != nil {
				continue
			}
			got, err := m.Get(c.Name)
			if err != nil {
				continue // carrier unused by the trace: unbound in the design
			}
			if got != want {
				t.Errorf("%s: carrier %s = %#x, behavioral says %#x", alloca, c.Name, got, want)
			}
		case vt.CarMem:
			// Compare the words touched by the stimulus plus a window.
			for addr := range memInit {
				want, _ := ref.Mem(c.Name, addr)
				got, _ := m.Mem(c.Name, addr)
				if got != want {
					t.Errorf("%s: %s[%d] = %#x, behavioral says %#x", alloca, c.Name, addr, got, want)
				}
			}
			for addr := 0; addr < c.Words && addr < 64; addr++ {
				want, _ := ref.Mem(c.Name, addr)
				got, _ := m.Mem(c.Name, addr)
				if got != want {
					t.Errorf("%s: %s[%d] = %#x, behavioral says %#x", alloca, c.Name, addr, got, want)
				}
			}
		}
	}
}

func TestCosimGCD(t *testing.T) {
	cosim(t, "gcd", map[string]uint64{"XIN": 270, "YIN": 192}, nil, 1)
}

func TestCosimMult8(t *testing.T) {
	cosim(t, "mult8", map[string]uint64{"AIN": 201, "BIN": 117}, nil, 1)
}

func TestCosimSqrt(t *testing.T) {
	cosim(t, "sqrt", map[string]uint64{"NIN": 30000}, nil, 1)
}

func TestCosimCounter(t *testing.T) {
	cosim(t, "counter", map[string]uint64{"EN": 1}, nil, 7)
}

func TestCosimTraffic(t *testing.T) {
	cosim(t, "traffic", map[string]uint64{"CAR": 1}, nil, 13)
}

func TestCosimAM2901(t *testing.T) {
	cosim(t, "am2901",
		map[string]uint64{"AADR": 1, "BADR": 2, "I": 3<<6 | 0<<3 | 1, "D": 0, "CIN": 0},
		map[int]uint64{1: 9, 2: 5}, 1)
}

func TestCosimMark1(t *testing.T) {
	ldn := uint64(2)<<13 | 20
	sub := uint64(4)<<13 | 21
	sto := uint64(3)<<13 | 22
	cosim(t, "mark1", nil, map[int]uint64{
		1: ldn, 2: sub, 3: sto, 4: uint64(7) << 13,
		20: 30, 21: 12,
	}, 4)
}

func TestCosimMCS6502Program(t *testing.T) {
	if testing.Short() {
		t.Skip("full 6502 co-simulation in -short mode")
	}
	// LDA #$05; STA $10; LDA #$03; CLC; ADC $10; ASL A; STA $11;
	// LDX #$02; STA $20,X
	image := map[int]uint64{
		0xFFFC: 0x00, 0xFFFD: 0x02,
	}
	program := []uint64{
		0xA9, 0x05, 0x85, 0x10, 0xA9, 0x03, 0x18, 0x65, 0x10,
		0x0A, 0x85, 0x11, 0xA2, 0x02, 0x95, 0x20,
	}
	for i, b := range program {
		image[0x0200+i] = b
	}
	// Reset on the first cycle only: run the reset cycle with RES=1 via a
	// custom stimulus — cosim applies constant inputs, so emulate reset by
	// presetting PC and S on both machines instead.
	src, _ := bench.Source("mcs6502")
	prog, err := isps.Parse("mcs6502", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vt.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(prog)
	for addr, v := range image {
		ref.SetMem("M", addr, v)
	}
	ref.Set("PC", 0x0200)
	ref.Set("S", 0xFF)
	if err := ref.RunN(9); err != nil {
		t.Fatal(err)
	}
	for alloca, d := range designsFor(t, tr) {
		m, err := rtlsim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		for addr, v := range image {
			m.SetMem("M", addr, v)
		}
		m.Set("PC", 0x0200)
		m.Set("S", 0xFF)
		if err := m.RunN(9); err != nil {
			t.Fatalf("%s: %v", alloca, err)
		}
		for _, reg := range []string{"A", "X", "P", "PC", "S"} {
			want, _ := ref.Get(reg)
			got, _ := m.Get(reg)
			if got != want {
				t.Errorf("%s: %s = %#x, behavioral says %#x", alloca, reg, got, want)
			}
		}
		for _, addr := range []int{0x10, 0x11, 0x22} {
			want, _ := ref.Mem("M", addr)
			got, _ := m.Mem("M", addr)
			if got != want {
				t.Errorf("%s: M[%#x] = %#x, behavioral says %#x", alloca, addr, got, want)
			}
		}
	}
	// Sanity: the program actually computed things.
	if v, _ := ref.Mem("M", 0x11); v != 16 {
		t.Fatalf("reference M[$11] = %d, want 16 ((5+3)<<1)", v)
	}
	if v, _ := ref.Mem("M", 0x22); v != 16 {
		t.Fatalf("reference M[$22] = %d, want 16", v)
	}
}

func TestMachineErrors(t *testing.T) {
	tr, err := bench.Load("gcd")
	if err != nil {
		t.Fatal(err)
	}
	d, err := alloc.Naive(tr, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rtlsim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("NOPE", 1); err == nil {
		t.Error("Set of unknown carrier should fail")
	}
	if _, err := m.Get("NOPE"); err == nil {
		t.Error("Get of unknown carrier should fail")
	}
	if err := m.SetMem("X", 0, 1); err == nil {
		t.Error("SetMem of a register should fail")
	}
	if _, err := rtlsim.New(rtl.NewDesign("empty", nil)); err == nil {
		t.Error("New without a trace should fail")
	}
}

func TestStepBudget(t *testing.T) {
	src := `
processor P {
    reg A<7:0>
    main m { while 1 { A := A + 1 } }
}`
	prog, err := isps.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vt.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alloc.Naive(tr, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rtlsim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 500
	if err := m.Run(); err == nil {
		t.Fatal("expected step-budget error")
	}
}

// Property: for random branchy programs, all three allocations agree with
// the behavioral interpreter on every register.
func TestCosimRandomProgramsProperty(t *testing.T) {
	ops := []string{"+", "-", "and", "or", "xor"}
	f := func(seed uint32, n uint8, init [4]uint8) bool {
		stmts := int(n%6) + 1
		s := seed
		body := ""
		for i := 0; i < stmts; i++ {
			s = s*1664525 + 1013904223
			dst := int(s>>4) % 4
			a := int(s>>10) % 4
			b := int(s>>16) % 4
			op := ops[int(s>>22)%len(ops)]
			stmt := fmt.Sprintf("R%d := R%d %s R%d", dst, a, op, b)
			switch int(s) % 4 {
			case 1:
				stmt = fmt.Sprintf("if R%d lss 128 { %s } else { R%d := R%d }", a, stmt, b, dst)
			case 2:
				stmt = fmt.Sprintf("decode R%d<1:0> { 0: %s 2: R%d := 7 otherwise: nop }", b, stmt, a)
			case 3:
				stmt = fmt.Sprintf("repeat 2 { %s }", stmt)
			}
			body += stmt + "\n"
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
		ref := sim.New(prog)
		for i := 0; i < 4; i++ {
			ref.Set(fmt.Sprintf("R%d", i), uint64(init[i]))
		}
		if err := ref.Run(); err != nil {
			return false
		}

		res, err := core.Synthesize(tr, core.Options{})
		if err != nil {
			return false
		}
		le, err := alloc.LeftEdge(tr, alloc.Options{})
		if err != nil {
			return false
		}
		for _, d := range []*rtl.Design{res.Design, le} {
			m, err := rtlsim.New(d)
			if err != nil {
				return false
			}
			for i := 0; i < 4; i++ {
				m.Set(fmt.Sprintf("R%d", i), uint64(init[i])) // unused carriers error; ignore
			}
			if err := m.Run(); err != nil {
				return false
			}
			for i := 0; i < 4; i++ {
				got, err := m.Get(fmt.Sprintf("R%d", i))
				if err != nil {
					continue // carrier unused by the trace: not in the design
				}
				want, _ := ref.Get(fmt.Sprintf("R%d", i))
				if want != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCosimIBM370Program(t *testing.T) {
	if testing.Short() {
		t.Skip("full 370 co-simulation in -short mode")
	}
	// LA R1,5; LA R2,7; AR R1,R2; ST R1,0x100; CR R1,R2; BC 2,0x40;
	// at 0x40: LA R3,1.
	program := map[int]uint64{}
	put := func(addr int, bytes ...uint64) {
		for i, b := range bytes {
			program[addr+i] = b
		}
	}
	put(0x10, 0x41, 0x10, 0x00, 0x05, 0x41, 0x20, 0x00, 0x07, 0x1A, 0x12,
		0x50, 0x10, 0x01, 0x00, 0x19, 0x12, 0x47, 0x20, 0x00, 0x40)
	put(0x40, 0x41, 0x30, 0x00, 0x01)

	src, _ := bench.Source("ibm370")
	prog, err := isps.Parse("ibm370", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vt.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(prog)
	for addr, v := range program {
		ref.SetMem("M", addr, v)
	}
	ref.Set("IA", 0x10)
	if err := ref.RunN(7); err != nil {
		t.Fatal(err)
	}
	for alloca, d := range designsFor(t, tr) {
		m, err := rtlsim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		for addr, v := range program {
			m.SetMem("M", addr, v)
		}
		m.Set("IA", 0x10)
		if err := m.RunN(7); err != nil {
			t.Fatalf("%s: %v", alloca, err)
		}
		for _, reg := range []string{"IA", "CC", "W", "AD2"} {
			want, _ := ref.Get(reg)
			got, _ := m.Get(reg)
			if got != want {
				t.Errorf("%s: %s = %#x, behavioral says %#x", alloca, reg, got, want)
			}
		}
		for r := 0; r < 16; r++ {
			want, _ := ref.Mem("R", r)
			got, _ := m.Mem("R", r)
			if got != want {
				t.Errorf("%s: R%d = %#x, behavioral says %#x", alloca, r, got, want)
			}
		}
		for addr := 0x100; addr < 0x104; addr++ {
			want, _ := ref.Mem("M", addr)
			got, _ := m.Mem("M", addr)
			if got != want {
				t.Errorf("%s: M[%#x] = %#x, behavioral says %#x", alloca, addr, got, want)
			}
		}
	}
	// Sanity: the program computed 12 and took the branch.
	if v, _ := ref.Mem("R", 1); v != 12 {
		t.Fatalf("reference R1 = %d, want 12", v)
	}
	if v, _ := ref.Mem("R", 3); v != 1 {
		t.Fatalf("reference R3 = %d, want 1", v)
	}
}

// Property: for random inputs, the synthesized GCD/MULT8/SQRT designs agree
// with the behavioral reference. The designs are synthesized once and a
// fresh machine is built per input.
func TestCosimRandomInputsProperty(t *testing.T) {
	type bencher struct {
		name    string
		inputs  []string
		outputs []string
	}
	cases := []bencher{
		{"gcd", []string{"XIN", "YIN"}, []string{"R"}},
		{"mult8", []string{"AIN", "BIN"}, []string{"PRODUCT"}},
		{"sqrt", []string{"NIN"}, []string{"ROOT"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			src, _ := bench.Source(c.name)
			prog, err := isps.Parse(c.name, src)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := vt.Build(prog)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(tr, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			f := func(vals [2]uint16) bool {
				ref := sim.New(prog)
				dut, err := rtlsim.New(res.Design)
				if err != nil {
					return false
				}
				for i, in := range c.inputs {
					v := uint64(vals[i])
					if v == 0 {
						v = 1 // subtraction GCD needs positive inputs
					}
					ref.Set(in, v)
					dut.Set(in, v)
				}
				if err := ref.Run(); err != nil {
					return false
				}
				if err := dut.Run(); err != nil {
					return false
				}
				for _, out := range c.outputs {
					want, _ := ref.Get(out)
					got, _ := dut.Get(out)
					if want != got {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Both simulators keep their memories in the paged store sim.Memory. One
// table drives the two through SetMem and Mem: every case runs on fresh
// machines, whose memories start with no pages. M is two pages long and N
// (300 words) ends part-way into its second page.
func TestPagedMemory(t *testing.T) {
	prog, err := isps.Parse("t", `
processor P {
    mem M[0:511]<7:0> mem N[0:299]<7:0>
    reg A<8:0> reg B<7:0>
    port out R<7:0>
    main m { M[A] := B  N[A] := B  R := M[A] + N[A] }
}`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vt.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alloc.Naive(tr, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type word struct {
		mem  string
		addr int
		v    uint64
	}
	cases := []struct {
		name   string
		writes []word
		reads  []word // v is the value read back
	}{
		{"unwritten words read zero", nil,
			[]word{{"M", 0, 0}, {"M", 255, 0}, {"M", 256, 0}, {"M", 511, 0}, {"N", 299, 0}}},
		{"words either side of a page boundary", []word{{"M", 255, 0xaa}, {"M", 256, 0xbb}},
			[]word{{"M", 254, 0}, {"M", 255, 0xaa}, {"M", 256, 0xbb}, {"M", 257, 0}, {"N", 255, 0}, {"N", 256, 0}}},
		{"last word of a memory that is not a page multiple", []word{{"N", 299, 0x5a}},
			[]word{{"N", 298, 0}, {"N", 299, 0x5a}, {"M", 299, 0}}},
		{"zero into an unwritten page", []word{{"M", 300, 0}},
			[]word{{"M", 300, 0}, {"M", 301, 0}}},
		{"zero over a written word", []word{{"M", 7, 0x11}, {"M", 7, 0}},
			[]word{{"M", 7, 0}}},
		{"values masked to the word width", []word{{"N", 3, 0x1ff}},
			[]word{{"N", 3, 0xff}}},
	}
	type memSim interface {
		SetMem(name string, addr int, v uint64) error
		Mem(name string, addr int) (uint64, error)
	}
	machines := func(t *testing.T) map[string]memSim {
		dut, err := rtlsim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]memSim{"sim": sim.New(prog), "rtlsim": dut}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for simName, m := range machines(t) {
				for _, w := range c.writes {
					if err := m.SetMem(w.mem, w.addr, w.v); err != nil {
						t.Fatalf("%s: SetMem(%s, %d): %v", simName, w.mem, w.addr, err)
					}
				}
				for _, r := range c.reads {
					got, err := m.Mem(r.mem, r.addr)
					if err != nil {
						t.Fatalf("%s: Mem(%s, %d): %v", simName, r.mem, r.addr, err)
					}
					if got != r.v {
						t.Errorf("%s: %s[%d] = %#x, want %#x", simName, r.mem, r.addr, got, r.v)
					}
				}
			}
		})
	}

	// Out-of-range addresses, one below the memory and one past its last
	// word, fail both reads and writes with each simulator's error text.
	for _, c := range []struct {
		mem  string
		addr int
		want map[string]string
	}{
		{"M", -1, map[string]string{"sim": "sim: M[-1] outside [0:511]", "rtlsim": "rtlsim: M[-1] out of range"}},
		{"M", 512, map[string]string{"sim": "sim: M[512] outside [0:511]", "rtlsim": "rtlsim: M[512] out of range"}},
		{"N", -1, map[string]string{"sim": "sim: N[-1] outside [0:299]", "rtlsim": "rtlsim: N[-1] out of range"}},
		{"N", 300, map[string]string{"sim": "sim: N[300] outside [0:299]", "rtlsim": "rtlsim: N[300] out of range"}},
	} {
		for simName, m := range machines(t) {
			want := c.want[simName]
			if err := m.SetMem(c.mem, c.addr, 1); err == nil || err.Error() != want {
				t.Errorf("%s: SetMem(%s, %d) = %v, want %q", simName, c.mem, c.addr, err, want)
			}
			if _, err := m.Mem(c.mem, c.addr); err == nil || err.Error() != want {
				t.Errorf("%s: Mem(%s, %d) = %v, want %q", simName, c.mem, c.addr, err, want)
			}
		}
	}
}
