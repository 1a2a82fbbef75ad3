package core_test

// The rule-coverage corpus: testdata/corpus holds one small ISPS program
// for each construct the nine benchmarks never exercise, so that every
// rule of the knowledge base fires, and its effects journal and replay,
// in some test. Each program's header comment names the rules it fires.

import (
	"context"
	"fmt"
	"io"
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
// allocation path then share the front end's cached forms of the trace:
// the baselines and trace-rules=false bind the plain trace, default DAA
// compiles bind the one cached refinement, and a DAA compile that
// observes phase 0 (a journal, a firing trace or the matcher cross-check)
// binds a refined copy of its own. go test -race checks that no compile
// writes a shared form. The plain trace's dump stays unchanged, each path
// builds the same design twice, and each observing compile builds the
// default compile's design.
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
	const (
		plain   = iota // the front end's plain trace
		refined        // the source's one cached refinement
		own            // a refined copy of the compile's own
	)
	paths := []struct {
		name  string
		opt   flow.Options
		binds int
	}{
		{"leftedge", flow.Options{Allocator: flow.AllocLeftEdge}, plain},
		{"naive", flow.Options{Allocator: flow.AllocNaive}, plain},
		{"daa", flow.Options{}, refined},
		{"daa trace-rules=false", flow.Options{Core: core.Options{DisableTraceRules: true}}, plain},
		{"daa journal", flow.Options{Core: core.Options{Journal: true}}, own},
		{"daa firing trace", flow.Options{Core: core.Options{Trace: io.Discard}}, own},
		{"daa crosscheck", flow.Options{Core: core.Options{CrossCheckMatch: true}}, own},
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
	var ref *vt.Program // the refinement the default DAA compiles bind, and their design
	var refDesign string
	for i, p := range paths {
		if p.binds == refined {
			ref, refDesign = results[i].Design.Trace, core.RenderDesign(t, results[i].Design)
		}
	}
	for i, p := range paths {
		a, b := results[i], results[i+len(paths)]
		switch ta, tb := a.Design.Trace, b.Design.Trace; {
		case p.binds == plain && (ta != shared || tb != shared):
			t.Errorf("%s: design does not bind the plain trace", p.name)
		case p.binds == refined && (ta != tb || ta == shared):
			t.Errorf("%s: two compiles bind %p and %p, want one refinement, not the plain trace %p", p.name, ta, tb, shared)
		case p.binds == own && (ta == tb || ta == shared || ta == ref || tb == ref):
			t.Errorf("%s: design binds a shared trace, want a refined copy of its own", p.name)
		}
		design := core.RenderDesign(t, a.Design)
		if design != core.RenderDesign(t, b.Design) {
			t.Errorf("%s: two concurrent compiles built different designs", p.name)
		}
		if p.binds == own && design != refDesign {
			t.Errorf("%s: built a different design from the cached refinement's", p.name)
		}
	}
}
