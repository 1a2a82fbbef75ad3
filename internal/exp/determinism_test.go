package exp

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
)

// TestAllocatorsLeaveInputUnrefined pins the comparison's fairness
// invariant: the DAA binds phase 0's refinement, which the front-end
// cache keeps apart from the plain trace, so the baselines in E2 see the
// unrefined description. Each baseline row must match a run on the
// loaded trace, which the E2 compiles share.
func TestAllocatorsLeaveInputUnrefined(t *testing.T) {
	rows, err := E2(context.Background(), "gcd")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := bench.Load("gcd")
	if err != nil {
		t.Fatal(err)
	}
	le, err := alloc.LeftEdge(loaded, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Counts != le.Counts() {
		t.Errorf("left-edge counts diverge from a run on the loaded trace: %+v vs %+v", rows[1].Counts, le.Counts())
	}
	nv, err := alloc.Naive(loaded, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[2].Counts != nv.Counts() {
		t.Errorf("naive counts diverge from a run on the loaded trace: %+v vs %+v", rows[2].Counts, nv.Counts())
	}
}

// Wall-clock-valued tokens are the only thing allowed to differ between
// two runs of the suite; everything else — row order, row count, every
// count and cost — must be byte-identical even though the experiments fan
// out over a worker pool.
var (
	durRE   = regexp.MustCompile(`\b\d+(\.\d+)?(ns|µs|us|ms|s)\b`)
	rateRE  = regexp.MustCompile(`\d+ rules/sec`)
	cellRE  = regexp.MustCompile(`\d+\.\d+\*?`)
	tailRE  = regexp.MustCompile(`\d+\.\d+\s*$`)
	hruleRE = regexp.MustCompile(`^[=-]{4,}$`)
	padRE   = regexp.MustCompile(`  +`)
)

func normalizeTimings(s string) string {
	s = durRE.ReplaceAllString(s, "<t>")
	s = rateRE.ReplaceAllString(s, "<r> rules/sec")
	lines := strings.Split(s, "\n")
	section := ""
	for i, ln := range lines {
		trim := strings.TrimSpace(ln)
		switch {
		case strings.HasPrefix(ln, "E5 / Figure 2 — scaling"):
			section = "e5"
		case strings.HasPrefix(ln, "E8 (engine) — per-rule match cost"):
			section = "e8rules"
		case strings.HasPrefix(ln, "E9 (extension) — behavioral-vs-RTL"):
			section = "e9"
		case trim == "":
			section = ""
		}
		switch section {
		case "e5":
			// last column is wall time
			ln = tailRE.ReplaceAllString(ln, "<t>")
		case "e9":
			// the emit/cosim columns are wall time; verdicts and sample
			// counts are integers and must stay byte-identical
			ln = cellRE.ReplaceAllString(ln, "<t>")
		case "e8rules":
			// the top-N table is ranked by measured match time, so row
			// membership and order are timing-dependent by design; keep
			// only the deterministic notes and the row count.
			if trim != "" && !strings.HasPrefix(trim, "note:") && !hruleRE.MatchString(trim) {
				ln = "<row>"
			}
		}
		if hruleRE.MatchString(strings.TrimSpace(ln)) {
			// separator width tracks column widths, which track the
			// width of timing cells
			ln = "<hrule>"
		}
		lines[i] = strings.TrimRight(padRE.ReplaceAllString(ln, " "), " ")
	}
	return strings.Join(lines, "\n")
}

func firstDiff(t *testing.T, a, b string) {
	t.Helper()
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			t.Fatalf("outputs diverge at line %d:\n  run 1: %q\n  run 2: %q", i+1, al[i], bl[i])
		}
	}
	t.Fatalf("outputs diverge in length: %d vs %d lines", len(al), len(bl))
}

// TestAllDeterministicUnderParallelism runs the full report twice: the
// worker-pool fan-out of E5/E6/E7 must not perturb a single byte once
// wall-clock tokens are normalized.
func TestAllDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-suite runs in -short mode")
	}
	run := func() string {
		var sb strings.Builder
		if err := All(context.Background(), &sb); err != nil {
			t.Fatal(err)
		}
		return normalizeTimings(sb.String())
	}
	a, b := run(), run()
	if a != b {
		firstDiff(t, a, b)
	}
}
