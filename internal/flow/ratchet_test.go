package flow_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/flow"
)

// compileAllocCeiling caps the heap allocations of one flow.Compile of the
// MCS6502 with the front end cached. Allocation counts are deterministic,
// so this catches regressions that timing noise hides. The ceiling is the
// count measured when it was set (33,485 with Go 1.24, down from 33,839
// once the rule base became one package-level table instead of 48 rules
// built per synthesis) plus 2% headroom for differences between Go
// releases (CI builds with Go 1.22). A change may lower it; it must never
// raise it.
const compileAllocCeiling = 34155

func TestCompileAllocRatchet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	in := mustInput(t, "mcs6502")
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		_, err = flow.Compile(context.Background(), in, flow.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs per compile: %.0f", allocs)
	if allocs > compileAllocCeiling {
		t.Errorf("flow.Compile of mcs6502 made %.0f allocations, ceiling %d", allocs, compileAllocCeiling)
	}
}

// cosimByteCeiling caps the bytes one flow.RunCosim allocates, at the
// default stimulus (4 vectors x 4 cycles, each vector on a fresh pair of
// machines) and at 64 x 64 on mcs6502. Both simulators keep memories in
// pages allocated on first write, and rtlsim runs each step's operators
// as the design lists them, with one scratch wire map per machine, so the
// cost follows the words a run touches and the design, not the steps it
// executes. Measured with Go 1.24: 24,960 bytes for ibm370 and 43,512 for
// mcs6502 at 4 x 4, down from 65,984 and 220,504 when rtlsim regrouped the
// design's states for every machine and copied and sorted each step's
// operators on every step; 695,409 for mcs6502 at 64 x 64, down from
// 14.6 MB. Each ceiling adds 25% headroom for differences between Go
// releases (CI builds with Go 1.22), whose maps allocate differently. A
// change may lower a ceiling; it must never raise one.
var cosimByteCeiling = []struct {
	bench           string
	vectors, cycles int
	ceiling         uint64
}{
	{"ibm370", 4, 4, 31_200},
	{"mcs6502", 4, 4, 54_400},
	{"mcs6502", 64, 64, 869_300},
}

func TestCosimAllocRatchet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range cosimByteCeiling {
		t.Run(fmt.Sprintf("%s/%dx%d", c.bench, c.vectors, c.cycles), func(t *testing.T) {
			res, err := flow.Compile(context.Background(), mustInput(t, c.bench), flow.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p := flow.CosimParams{Vectors: c.vectors, Cycles: c.cycles}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				rep, err := flow.RunCosim(res.AST, res.Design, p)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Equivalent {
					t.Fatal(rep.Summary())
				}
			}
			runtime.ReadMemStats(&after)
			perRun := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%d bytes per RunCosim, ceiling %d", perRun, c.ceiling)
			if perRun > c.ceiling {
				t.Errorf("flow.RunCosim allocated %d bytes, ceiling %d", perRun, c.ceiling)
			}
		})
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool
