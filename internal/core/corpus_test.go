package core_test

// The rule-coverage corpus: testdata/corpus holds one small ISPS program
// for each construct the nine benchmarks never exercise, so that every
// rule of the knowledge base fires, and its effects journal and replay,
// in some test. Each program's header comment names the rules it fires.

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/vt"
)

// corpus returns the corpus programs, in file-name order.
func corpus(t *testing.T) []flow.Input {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.isps"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus programs (%v)", err)
	}
	ins := make([]flow.Input, len(paths))
	for i, p := range paths {
		if ins[i], err = flow.FileInput(p); err != nil {
			t.Fatal(err)
		}
	}
	return ins
}

// corpusTrace returns the front end's cached value trace of one corpus
// program.
func corpusTrace(t *testing.T, in flow.Input) *vt.Program {
	t.Helper()
	tr, err := flow.FrontEnd(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRuleCoverage checks that every rule of the knowledge base fires on
// the nine benchmarks or the corpus. Each corpus program must also
// compile under all three allocators to a design that validates and
// cosimulates equivalent to its behaviour, and its DAA journal must
// replay to the identical design.
func TestRuleCoverage(t *testing.T) {
	fired := map[string]int{}
	count := func(res *core.Result) {
		for _, r := range res.Stats.EngineMetrics().Rules {
			fired[r.Name] += r.Firings
		}
	}
	for _, name := range bench.Names() {
		tr, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(tr, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		count(res)
	}
	for _, in := range corpus(t) {
		for _, a := range []string{flow.AllocDAA, flow.AllocLeftEdge, flow.AllocNaive} {
			opt := flow.Options{Allocator: a, Cosim: true, Core: core.Options{Journal: a == flow.AllocDAA}}
			res, err := flow.Compile(context.Background(), in, opt)
			if err != nil {
				t.Fatalf("%s under %s: %v", in.Name, a, err)
			}
			if !res.Cosim.Equivalent {
				t.Errorf("%s under %s: not equivalent: %+v", in.Name, a, res.Cosim.Mismatch)
			}
			if a != flow.AllocDAA {
				continue
			}
			count(res.Synth)
			replayed, err := core.Replay(corpusTrace(t, in), res.Journal(), core.Options{})
			if err != nil {
				t.Fatalf("%s: replay: %v", in.Name, err)
			}
			if got, want := core.RenderDesign(t, replayed), core.RenderDesign(t, res.Design); got != want {
				t.Errorf("%s: replayed design differs:\n%s", in.Name, firstDiff(got, want))
			}
		}
	}
	for _, ph := range core.KnowledgeBase() {
		for _, r := range ph.Rules {
			if fired[r.Name] == 0 {
				t.Errorf("phase %s rule %s fires on no benchmark and no corpus program", ph.Name, r.Name)
			}
		}
	}
}

// TestSynthesisLeavesTraceAlone pins that synthesis and replay never
// write their input trace: phase 0, the trace's only writer, refines a
// copy of its own. Synthesizing any benchmark or corpus program with trace
// rules on and off, and replaying each journal, leaves the trace's dump
// byte-identical. Concurrent compiles of one source under every
// allocation path then share the front end's one cached trace (go test
// -race checks that none writes it), leave its dump unchanged, and build
// the same design for the same options.
func TestSynthesisLeavesTraceAlone(t *testing.T) {
	dump := func(tr *vt.Program) string {
		var b strings.Builder
		if err := tr.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	check := func(name string, tr *vt.Program) {
		before := dump(tr)
		unchanged := func(what string) {
			if after := dump(tr); after != before {
				t.Fatalf("%s: %s rewrote the value trace:\n%s", name, what, firstDiff(after, before))
			}
		}
		for _, rules := range []bool{true, false} {
			res, err := core.Synthesize(tr, core.Options{DisableTraceRules: !rules, Journal: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			unchanged(fmt.Sprintf("synthesis with trace rules %v", rules))
			if _, err := core.Replay(tr, res.Journal, core.Options{}); err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			unchanged(fmt.Sprintf("replay with trace rules %v", rules))
		}
	}
	for _, name := range bench.Names() {
		tr, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		check(name, tr)
	}
	for _, in := range corpus(t) {
		check(in.Name, corpusTrace(t, in))
	}

	ctx := context.Background()
	in, err := bench.Input("mcs6502")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := flow.FrontEnd(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	before := dump(shared)
	paths := []struct {
		name    string
		opt     flow.Options
		refines bool // the design binds phase 0's copy, not the shared trace
	}{
		{"leftedge", flow.Options{Allocator: flow.AllocLeftEdge}, false},
		{"naive", flow.Options{Allocator: flow.AllocNaive}, false},
		{"daa", flow.Options{}, true},
		{"daa trace-rules=false", flow.Options{Core: core.Options{DisableTraceRules: true}}, false},
	}
	results := make([]*flow.Result, 2*len(paths)) // each path twice
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = flow.Compile(ctx, in, paths[i%len(paths)].opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent compile %d: %v", i, err)
		}
	}
	if after := dump(shared); after != before {
		t.Errorf("concurrent compiles rewrote the shared trace:\n%s", firstDiff(after, before))
	}
	for i, p := range paths {
		a, b := results[i], results[i+len(paths)]
		if binds := a.Design.Trace == shared; binds == p.refines {
			t.Errorf("%s: design binds the shared trace: %v, want %v", p.name, binds, !p.refines)
		}
		if core.RenderDesign(t, a.Design) != core.RenderDesign(t, b.Design) {
			t.Errorf("%s: two concurrent compiles built different designs", p.name)
		}
	}
}
