package flow

// Behavioral-vs-RTL co-simulation, the pipeline's cosim stage. The same
// seeded stimulus runs through the behavioral ISPS interpreter
// (internal/sim, on the analyzed AST) and through the register-transfer
// simulator (internal/rtlsim, on the synthesized design); every
// architectural carrier the design binds is compared cycle by cycle. The
// 1983 system trusted its output structure — this closes the loop the way
// ConPro and DAVE do, treating checked HDL as the product.

import (
	"fmt"
	"io"

	"repro/internal/isps"
	"repro/internal/rtl"
	"repro/internal/rtlsim"
	"repro/internal/sim"
	"repro/internal/vt"
)

// Cosim stimulus defaults, applied when the corresponding CosimParams
// field is zero.
const (
	DefaultCosimSeed    = 1
	DefaultCosimVectors = 4
	DefaultCosimCycles  = 4
)

// CosimParams tunes the cosim stage's stimulus. The zero value means the
// defaults; equal parameter sets always produce identical stimulus, so a
// verdict is reproducible from (source, options) alone.
type CosimParams struct {
	// Seed keys the stimulus generator (0 = DefaultCosimSeed).
	Seed uint64
	// Vectors is the number of independent stimulus vectors; each runs on
	// fresh machines (0 = DefaultCosimVectors).
	Vectors int
	// Cycles is the number of machine cycles (entry-body executions) per
	// vector (0 = DefaultCosimCycles).
	Cycles int
}

func (p CosimParams) withDefaults() CosimParams {
	if p.Seed == 0 {
		p.Seed = DefaultCosimSeed
	}
	if p.Vectors <= 0 {
		p.Vectors = DefaultCosimVectors
	}
	if p.Cycles <= 0 {
		p.Cycles = DefaultCosimCycles
	}
	return p
}

// CosimReport is the cosim stage's equivalence verdict.
type CosimReport struct {
	// Equivalent is true when every compared carrier agreed on every
	// vector and cycle.
	Equivalent bool
	// Seed/Vectors/Cycles echo the effective stimulus parameters.
	Seed    uint64
	Vectors int
	Cycles  int
	// Samples counts individual comparisons performed: one per register
	// or output port per cycle, one per memory word compared.
	Samples int
	// Hung counts vectors both simulators abandoned together (step budget
	// exhausted on each side — agreement on divergence, not a mismatch).
	Hung int
	// Mismatch is the first counterexample, when Equivalent is false.
	Mismatch *CosimMismatch
}

// CosimMismatch is one counterexample: the stimulus vector and machine
// cycle at which the design first disagreed with the behavioral reference.
type CosimMismatch struct {
	Vector int
	Cycle  int
	// Carrier names the disagreeing register, output port, or memory
	// (empty when the mismatch is a one-sided execution failure).
	Carrier string
	// Addr is the disagreeing memory word, -1 for non-memory carriers.
	Addr int
	// Behavioral and Design are the two values observed.
	Behavioral uint64
	Design     uint64
	// Detail carries a one-sided simulator error, when that is the
	// disagreement.
	Detail string
	// Inputs is the vector's full stimulus, in carrier declaration order,
	// so the counterexample reproduces standalone.
	Inputs []CosimInput
}

// CosimInput is one input port's stimulus value within a vector.
type CosimInput struct {
	Name  string
	Value uint64
}

// Summary renders the verdict as one line, the cosim stage's trace note.
func (r *CosimReport) Summary() string {
	if r.Equivalent {
		hung := ""
		if r.Hung > 0 {
			hung = fmt.Sprintf(", %d hung", r.Hung)
		}
		return fmt.Sprintf("equivalent: %d vectors x %d cycles, %d samples%s, seed %d",
			r.Vectors, r.Cycles, r.Samples, hung, r.Seed)
	}
	m := r.Mismatch
	if m.Detail != "" {
		return fmt.Sprintf("MISMATCH at vector %d cycle %d: %s", m.Vector, m.Cycle, m.Detail)
	}
	where := m.Carrier
	if m.Addr >= 0 {
		where = fmt.Sprintf("%s[%d]", m.Carrier, m.Addr)
	}
	return fmt.Sprintf("MISMATCH at vector %d cycle %d: %s = %#x (design), behavioral says %#x (seed %d)",
		m.Vector, m.Cycle, where, m.Design, m.Behavioral, r.Seed)
}

// Write renders the verdict block, the output of daa -verify: the summary
// line plus, on mismatch, the counterexample stimulus.
func (r *CosimReport) Write(w io.Writer) {
	fmt.Fprintf(w, "equivalence: %s\n", verdictWord(r.Equivalent))
	fmt.Fprintf(w, "  %s\n", r.Summary())
	if r.Mismatch != nil && len(r.Mismatch.Inputs) > 0 {
		fmt.Fprint(w, "  counterexample stimulus:")
		for _, in := range r.Mismatch.Inputs {
			fmt.Fprintf(w, " %s=%#x", in.Name, in.Value)
		}
		fmt.Fprintln(w)
	}
}

func verdictWord(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// splitmix64 is the stimulus PRNG: tiny, version-stable (unlike
// math/rand), and well distributed, so verdicts never shift under a Go
// upgrade.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// cosimInputBits caps stimulus magnitude: values use at most this many
// bits (after width masking), keeping data-dependent iteration counts —
// the subtraction GCD is the worst case — far inside the step budgets.
const cosimInputBits = 8

// RunCosim co-simulates a design against its behavioral description:
// Vectors independent stimulus vectors, each run for Cycles machine
// cycles on fresh machines, comparing every register and output port the
// design binds after every cycle and, at the end of the vector, every
// memory word either side wrote. It is exported (rather than reachable
// only through Compile) so tests can corrupt a design and watch the
// verdict flip.
//
// The returned error reports infrastructure failures only (a design
// without its trace); a disagreement is a report with Equivalent false
// and a counterexample, not an error.
func RunCosim(ast *isps.Program, d *rtl.Design, p CosimParams) (*CosimReport, error) {
	p = p.withDefaults()
	rep := &CosimReport{Equivalent: true, Seed: p.Seed, Vectors: p.Vectors, Cycles: p.Cycles}
	rng := splitmix64(p.Seed)

	// Input ports in carrier declaration order, so stimulus is a pure
	// function of (description, seed).
	var inputs []*vt.Carrier
	for _, c := range d.Trace.Carriers {
		if c.Kind == vt.CarPortIn {
			inputs = append(inputs, c)
		}
	}

	for v := 0; v < p.Vectors; v++ {
		ref := sim.New(ast)
		dut, err := rtlsim.New(d)
		if err != nil {
			return nil, fmt.Errorf("cosim: %w", err)
		}

		stim := make([]CosimInput, 0, len(inputs))
		for _, c := range inputs {
			bits := c.Width
			if bits > cosimInputBits {
				bits = cosimInputBits
			}
			val := rng.next() & ((uint64(1) << uint(bits)) - 1)
			if c.Width > 1 && val == 0 {
				// Multi-bit inputs stay positive: the subtraction GCD (and
				// descriptions like it) never terminates on a zero operand.
				val = 1
			}
			stim = append(stim, CosimInput{Name: c.Name, Value: val})
			if err := ref.Set(c.Name, val); err != nil {
				return nil, fmt.Errorf("cosim: behavioral stimulus %s: %w", c.Name, err)
			}
			// An input port the trace never reads has no binding in the
			// design; the behavioral side proves it cannot matter.
			_ = dut.Set(c.Name, val)
		}

		hung := false
		for cyc := 0; cyc < p.Cycles; cyc++ {
			refErr := ref.Run()
			dutErr := dut.Run()
			switch {
			case refErr != nil && dutErr != nil:
				// Both sides abandoned the cycle (step budgets): they agree
				// the stimulus diverges, which is not a structural mismatch.
				rep.Hung++
				hung = true
			case refErr != nil || dutErr != nil:
				detail := fmt.Sprintf("design completed but behavioral failed: %v", refErr)
				if dutErr != nil {
					detail = fmt.Sprintf("behavioral completed but design failed: %v", dutErr)
				}
				rep.Equivalent = false
				rep.Mismatch = &CosimMismatch{Vector: v, Cycle: cyc, Addr: -1, Detail: detail, Inputs: stim}
				return rep, nil
			default:
				if m := compareState(d.Trace, ref, dut, rep); m != nil {
					m.Vector, m.Cycle, m.Inputs = v, cyc, stim
					rep.Equivalent = false
					rep.Mismatch = m
					return rep, nil
				}
			}
			if hung {
				break
			}
		}
		if hung {
			continue
		}
		if m := compareMemories(d.Trace, ref, dut, rep); m != nil {
			m.Vector, m.Cycle, m.Inputs = v, p.Cycles-1, stim
			rep.Equivalent = false
			rep.Mismatch = m
			return rep, nil
		}
	}
	return rep, nil
}

// compareState checks every register and output port the design binds
// against the behavioral reference, returning the first disagreement.
func compareState(tr *vt.Program, ref *sim.Machine, dut *rtlsim.Machine, rep *CosimReport) *CosimMismatch {
	for _, c := range tr.Carriers {
		if c.Kind != vt.CarReg && c.Kind != vt.CarPortOut {
			continue
		}
		want, err := ref.Get(c.Name)
		if err != nil {
			continue
		}
		got, err := dut.Get(c.Name)
		if err != nil {
			continue // carrier unused by the trace: unbound in the design
		}
		rep.Samples++
		if got != want {
			return &CosimMismatch{Carrier: c.Name, Addr: -1, Behavioral: want, Design: got}
		}
	}
	return nil
}

// compareMemories checks every memory word either side wrote, at vector
// end: sim.Diff walks the union of the pages the two stores allocated.
func compareMemories(tr *vt.Program, ref *sim.Machine, dut *rtlsim.Machine, rep *CosimReport) *CosimMismatch {
	for _, c := range tr.Carriers {
		if c.Kind != vt.CarMem {
			continue
		}
		want, got := ref.Memory(c.Name), dut.Memory(c.Name)
		if want == nil || got == nil {
			continue // memory unused by the trace: unbound in the design
		}
		n, addr, w, g := sim.Diff(want, got)
		rep.Samples += n
		if addr >= 0 {
			return &CosimMismatch{Carrier: c.Name, Addr: addr, Behavioral: w, Design: g}
		}
	}
	return nil
}
