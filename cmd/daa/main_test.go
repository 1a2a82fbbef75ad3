package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flow"
)

func runQuiet(o options) error { return run(io.Discard, o) }

func TestRunListBenchmarks(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{list: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mcs6502") {
		t.Errorf("list output missing mcs6502: %q", sb.String())
	}
}

func TestRunEveryAllocator(t *testing.T) {
	for _, a := range []string{"daa", "leftedge", "naive"} {
		if err := runQuiet(options{benchName: "gcd", allocator: a}); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
}

func TestRunWithControlAndTrace(t *testing.T) {
	o := options{benchName: "counter", allocator: "daa", trace: true, stats: true, control: true}
	if err := runQuiet(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerilog(t *testing.T) {
	if err := runQuiet(options{benchName: "gcd", allocator: "daa", verilog: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoCleanup(t *testing.T) {
	if err := runQuiet(options{benchName: "gcd", allocator: "daa", noCleanup: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEngineStats(t *testing.T) {
	var sb strings.Builder
	o := options{benchName: "gcd", allocator: "daa", stats: true, engineStats: true}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"engine statistics", "top rules by match time", "cs-peak"} {
		if !strings.Contains(out, want) {
			t.Errorf("engine-stats output missing %q", want)
		}
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.isps")
	src := "processor X { reg A<7:0> main m { A := A + 1 } }"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuiet(options{inFile: path, allocator: "daa"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct{ in, bench, alloc string }{
		{"", "", "daa"},      // nothing to synthesize
		{"x", "y", "daa"},    // both inputs
		{"", "gcd", "bogus"}, // unknown allocator
		{"", "nope", "daa"},  // unknown benchmark
		{"/no/such.isps", "", "daa"},
	}
	for _, c := range cases {
		if err := runQuiet(options{inFile: c.in, benchName: c.bench, allocator: c.alloc}); err == nil {
			t.Errorf("run(%q,%q,%q): expected error", c.in, c.bench, c.alloc)
		}
	}
}

func TestRunStageTiming(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{benchName: "gcd", allocator: "daa", stageTiming: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"stage timing:", "parse", "allocate", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("stage-timing output missing %q:\n%s", want, out)
		}
	}
}

// TestExitCodes pins the CLI convention: 1 for usage mistakes, 2 for input
// problems, 3 for internal failures.
func TestExitCodes(t *testing.T) {
	usage := []options{
		{},                                     // nothing to synthesize
		{inFile: "x", benchName: "y"},          // both inputs
		{benchName: "gcd", allocator: "bogus"}, // unknown allocator
		{benchName: "nope", allocator: "daa"},  // unknown benchmark
	}
	for i, o := range usage {
		if got := flow.ExitCode(runQuiet(o)); got != flow.ExitUsage {
			t.Errorf("case %d: exit %d, want %d (usage)", i, got, flow.ExitUsage)
		}
	}
	if got := flow.ExitCode(runQuiet(options{inFile: "/no/such.isps", allocator: "daa"})); got != flow.ExitDiagnostic {
		t.Errorf("unreadable file: exit %d, want %d", got, flow.ExitDiagnostic)
	}
}

// TestBaselineRefusesExplainAndJournal: the baseline allocators fire no
// rules, so they have neither a journal nor provenance. Asking for either
// is a usage error, locally and with -remote, not a crash.
func TestBaselineRefusesExplainAndJournal(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "run.jnl")
	flags := []struct {
		name string
		set  func(*options)
	}{
		{"explain", func(o *options) { o.explain = "all" }},
		{"journal", func(o *options) { o.journal = jnl }},
		{"explain+verilog", func(o *options) { o.explain, o.verilog = "all", true }},
	}
	for _, a := range []string{flow.AllocLeftEdge, flow.AllocNaive} {
		for _, f := range flags {
			for _, remote := range []string{"", "http://localhost:1"} {
				o := options{benchName: "gcd", allocator: a, remote: remote}
				f.set(&o)
				if got := flow.ExitCode(runQuiet(o)); got != flow.ExitUsage {
					t.Errorf("-allocator %s -%s (remote %q): exit %d, want %d (usage)", a, f.name, remote, got, flow.ExitUsage)
				}
			}
		}
	}
	if _, err := os.Stat(jnl); !os.IsNotExist(err) {
		t.Errorf("a refused run wrote the journal file (stat: %v)", err)
	}
}

// TestBadSourceGetsCaretDiagnostic compiles an ill-formed file and checks
// the error renders with a position and a caret under the column.
func TestBadSourceGetsCaretDiagnostic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.isps")
	src := "processor X {\n    reg A<7:0>\n    main m {\n        A := NOPE + 1\n    }\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runQuiet(options{inFile: path, allocator: "daa"})
	if err == nil {
		t.Fatal("expected a diagnostic")
	}
	if got := flow.ExitCode(err); got != flow.ExitDiagnostic {
		t.Errorf("exit %d, want %d", got, flow.ExitDiagnostic)
	}
	var sb strings.Builder
	flow.WriteError(&sb, "daa", err)
	out := sb.String()
	if !strings.Contains(out, "bad.isps:4") || !strings.Contains(out, "^") {
		t.Errorf("caret diagnostic missing position:\n%s", out)
	}
}

func TestRunLintRulesClean(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{lintRules: true}); err != nil {
		t.Fatalf("lint-rules on the embedded rule base: %v", err)
	}
	if !strings.Contains(sb.String(), "rule base clean: 48 rules across 7 phases") {
		t.Errorf("unexpected lint-rules summary: %q", sb.String())
	}
}
