package flow_test

import (
	"context"
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

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool
