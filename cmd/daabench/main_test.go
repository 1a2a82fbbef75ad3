package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/flow"
)

func TestSingleExperiments(t *testing.T) {
	for _, e := range []string{"E1", "E2", "E3", "E4", "E8"} {
		if err := run(io.Discard, e, "gcd"); err != nil {
			t.Fatalf("%s: %v", e, err)
		}
	}
}

func TestCosimTable(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "E9", "gcd"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E9", "cosimulation", "verdict", "PASS", "gcd", "mcs6502"} {
		if !strings.Contains(out, want) {
			t.Errorf("cosim table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("cosim table reports a failing benchmark:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	err := run(io.Discard, "E42", "gcd")
	if flow.ExitCode(err) != flow.ExitUsage {
		t.Errorf("unknown experiment: exit %d (%v), want usage", flow.ExitCode(err), err)
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if err := run(io.Discard, "E2", "nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}
