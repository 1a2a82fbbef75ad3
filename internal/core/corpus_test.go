package core_test

// The rule-coverage corpus: testdata/corpus holds one small ISPS program
// for each construct the nine benchmarks never exercise, so that every
// rule of the knowledge base fires, and its effects journal and replay,
// in some test. Each program's header comment names the rules it fires.

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/rtl"
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

// corpusTrace builds a fresh value trace of one corpus program.
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

// TestSynthesisLeavesTraceAlone pins that trace refinement is the value
// trace's only writer: with it off, synthesizing any benchmark or corpus
// program leaves the trace's dump byte-identical, and four concurrent
// syntheses may share one trace (go test -race checks that none writes
// it) and build one design.
func TestSynthesisLeavesTraceAlone(t *testing.T) {
	opt := core.Options{DisableTraceRules: true}
	dump := func(tr *vt.Program) string {
		var b strings.Builder
		if err := tr.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	check := func(name string, tr *vt.Program) {
		before := dump(tr)
		if _, err := core.Synthesize(tr, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := dump(tr); after != before {
			t.Errorf("%s: synthesis rewrote the value trace:\n%s", name, firstDiff(after, before))
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

	shared, err := bench.Load("mcs6502")
	if err != nil {
		t.Fatal(err)
	}
	designs := make([]*rtl.Design, 4)
	errs := make([]error, len(designs))
	var wg sync.WaitGroup
	for i := range designs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := core.Synthesize(shared, opt)
			if err == nil {
				designs[i] = res.Design
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent synthesis %d: %v", i, err)
		}
	}
	want := core.RenderDesign(t, designs[0])
	for i, d := range designs[1:] {
		if core.RenderDesign(t, d) != want {
			t.Errorf("concurrent synthesis %d built a different design", i+1)
		}
	}
}
