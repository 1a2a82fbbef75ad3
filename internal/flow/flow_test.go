package flow_test

// External test package so the tests can compile real benchmark sources
// through internal/bench (which itself sits on top of flow).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/prod"
	"repro/internal/vt"
)

func mustInput(t *testing.T, name string) flow.Input {
	t.Helper()
	in, err := bench.Input(name)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCompileDAA(t *testing.T) {
	res, err := flow.Compile(context.Background(), mustInput(t, "gcd"), flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Design == nil || res.Synth == nil || res.AST == nil || res.Design.Trace == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.Cost.Datapath <= 0 {
		t.Errorf("cost %v, want positive datapath", res.Cost)
	}
	for _, stage := range []string{flow.StageParse, flow.StageSema, flow.StageBuild,
		flow.StageAllocate, flow.StageValidate, flow.StageCost} {
		if _, ok := res.Trace.Stage(stage); !ok {
			t.Errorf("trace missing stage %s: %+v", stage, res.Trace.Stages)
		}
	}
	var sb strings.Builder
	res.Trace.Write(&sb)
	if !strings.Contains(sb.String(), "allocate") || !strings.Contains(sb.String(), "total") {
		t.Errorf("stage-timing output incomplete:\n%s", sb.String())
	}
}

func TestCompileBaselineAllocators(t *testing.T) {
	for _, a := range []string{flow.AllocLeftEdge, flow.AllocNaive} {
		res, err := flow.Compile(context.Background(), mustInput(t, "gcd"), flow.Options{Allocator: a})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Synth != nil {
			t.Errorf("%s: baseline result carries DAA stats", a)
		}
		if res.Design.Counts().Units == 0 {
			t.Errorf("%s: no units", a)
		}
	}
}

func TestCompileUnknownAllocator(t *testing.T) {
	_, err := flow.Compile(context.Background(), mustInput(t, "gcd"), flow.Options{Allocator: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "unknown allocator") {
		t.Fatalf("err %v, want unknown allocator", err)
	}
}

func TestParseErrorDiagnostics(t *testing.T) {
	in := flow.Input{Name: "bad.isps", Source: "processor P {\n    reg A<7:0\n}\n"}
	_, err := flow.Compile(context.Background(), in, flow.Options{})
	var dl flow.DiagnosticList
	if !errors.As(err, &dl) {
		t.Fatalf("err %T (%v), want DiagnosticList", err, err)
	}
	d := dl[0]
	if d.Stage != flow.StageParse {
		t.Errorf("stage %q, want parse", d.Stage)
	}
	if d.Pos.File != "bad.isps" || d.Pos.Line == 0 || d.Pos.Col == 0 {
		t.Errorf("pos %v, want a full bad.isps position", d.Pos)
	}
	// The diagnostic carries the exact source line its position points at.
	if want := strings.Split(in.Source, "\n")[d.Pos.Line-1]; d.SrcLine != want {
		t.Errorf("source line %q, want %q", d.SrcLine, want)
	}
	var sb strings.Builder
	flow.WriteError(&sb, "daa", err)
	out := sb.String()
	if !strings.Contains(out, "bad.isps:") || !strings.Contains(out, "^") {
		t.Errorf("caret rendering missing:\n%s", out)
	}
	if flow.ExitCode(err) != flow.ExitDiagnostic {
		t.Errorf("exit code %d, want %d", flow.ExitCode(err), flow.ExitDiagnostic)
	}
}

func TestSemaErrorDiagnostics(t *testing.T) {
	in := flow.Input{Name: "sema.isps", Source: "processor P {\n    reg A<7:0>\n    main m {\n        A := NOPE + 1\n    }\n}\n"}
	_, err := flow.Compile(context.Background(), in, flow.Options{})
	var dl flow.DiagnosticList
	if !errors.As(err, &dl) {
		t.Fatalf("err %T (%v), want DiagnosticList", err, err)
	}
	if dl[0].Stage != flow.StageSema {
		t.Errorf("stage %q, want sema", dl[0].Stage)
	}
	if dl[0].Pos.Line != 4 {
		t.Errorf("line %d, want 4", dl[0].Pos.Line)
	}
}

func TestExitCodeClassification(t *testing.T) {
	if got := flow.ExitCode(nil); got != 0 {
		t.Errorf("nil: %d, want 0", got)
	}
	if got := flow.ExitCode(flow.Usagef("bad flag")); got != flow.ExitUsage {
		t.Errorf("usage: %d, want %d", got, flow.ExitUsage)
	}
	if got := flow.ExitCode(flow.Diagf("parse", "x.isps", "boom")); got != flow.ExitDiagnostic {
		t.Errorf("diagnostic: %d, want %d", got, flow.ExitDiagnostic)
	}
	if _, err := flow.FileInput("/no/such/file.isps"); flow.ExitCode(err) != flow.ExitDiagnostic {
		t.Errorf("unreadable input: %d, want %d", flow.ExitCode(err), flow.ExitDiagnostic)
	}
	if got := flow.ExitCode(errors.New("wat")); got != flow.ExitInternal {
		t.Errorf("internal: %d, want %d", got, flow.ExitInternal)
	}
}

// TestCompileExpiredContext synthesizes the MCS6502 with an already-expired
// deadline: the pipeline must return a clean context.DeadlineExceeded and
// no partial design.
func TestCompileExpiredContext(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := flow.Compile(ctx, mustInput(t, "mcs6502"), flow.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("partial design leaked: %+v", res)
	}
}

// TestCompileCancelledBetweenEngineCycles cancels the context from inside a
// firing rule: the production engine must stop at its next recognize-act
// cycle, and the cancellation must surface as the context's error.
func TestCompileCancelledBetweenEngineCycles(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trip := &prod.Rule{
		Name:     "cancel-mid-cleanup",
		Category: "cleanup",
		Patterns: []prod.Pattern{prod.P("unit")},
		Action:   func(e *prod.Tx, m *prod.Match) { cancel() },
	}
	res, err := flow.Compile(ctx, mustInput(t, "gcd"), flow.Options{
		Core: core.Options{ExtraRules: []*prod.Rule{trip}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("partial design leaked after mid-phase cancellation")
	}
}

// TestFrontEndSharesOneTrace pins the artifact cache's two trace forms.
// FrontEnd returns one plain trace per source; the baselines and a DAA
// compile with its trace rules off bind it; and every default DAA compile
// binds the one refinement phase 0 made of the trace, which is not the
// plain trace, whose dump stays unchanged. Both orders hold: FrontEnd
// first, so the refinement refines a fresh build of the trace, and a DAA
// compile first, so the refinement adopts the trace the front end built
// and the first plain request rebuilds it.
func TestFrontEndSharesOneTrace(t *testing.T) {
	flow.ResetCache() // no source below has a refinement yet, also under go test -count
	ctx := context.Background()
	src := mustInput(t, "mcs6502").Source
	compile := func(in flow.Input, opt flow.Options) *flow.Result {
		t.Helper()
		res, err := flow.Compile(ctx, in, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	frontEnd := func(in flow.Input) *vt.Program {
		t.Helper()
		tr, err := flow.FrontEnd(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	dump := func(tr *vt.Program) string {
		var b strings.Builder
		if err := tr.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	var want string // the plain trace's dump, from the first order
	for _, daaFirst := range []bool{false, true} {
		in := flow.Input{Name: fmt.Sprintf("shares-one-trace-%v.isps", daaFirst), Source: src}
		var refined *flow.Result
		if daaFirst {
			refined = compile(in, flow.Options{})
		}
		shared := frontEnd(in)
		if frontEnd(in) != shared {
			t.Fatalf("daa first %v: FrontEnd returned two traces for one source; want the cached one", daaFirst)
		}
		before := dump(shared)
		if want == "" {
			want = before
		} else if before != want {
			t.Errorf("daa first %v: the rebuilt plain trace's dump differs from the one the front end built", daaFirst)
		}
		if !daaFirst {
			refined = compile(in, flow.Options{})
		}
		if refined.Design.Trace == shared {
			t.Errorf("daa first %v: the DAA's design binds the plain trace, not the refinement", daaFirst)
		}
		if again := compile(in, flow.Options{}); again.Design.Trace != refined.Design.Trace {
			t.Errorf("daa first %v: two DAA compiles bound two refinements; want the cached one", daaFirst)
		}
		for _, p := range []struct {
			name string
			opt  flow.Options
		}{
			{"trace-rules=false", flow.Options{Core: core.Options{DisableTraceRules: true}}},
			{"leftedge", flow.Options{Allocator: flow.AllocLeftEdge}},
		} {
			if compile(in, p.opt).Design.Trace != shared {
				t.Errorf("daa first %v: a %s compile does not bind FrontEnd's trace", daaFirst, p.name)
			}
		}
		if dump(shared) != before {
			t.Errorf("daa first %v: compiles rewrote the plain trace", daaFirst)
		}
	}
}

// cancelAfter is a context that reports context.Canceled from its n+1st
// Err call on. Its Done channel never closes, but is not nil, so the
// engines poll Err between cycles.
type cancelAfter struct {
	context.Context
	n    atomic.Int64
	done chan struct{}
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background(), done: make(chan struct{})}
	c.n.Store(n)
	return c
}

func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledRefinementNotKept cancels the first DAA compile of a
// fresh source at each context check inside phase 0 in turn: before its
// engine runs, and between its cycles, once the rules have begun
// rewriting the trace the front end built, which the refinement adopted.
// Each such compile fails with the context's error, and nothing of it is
// kept: the next compile of the source matches an uncancelled compile's
// design and statistics, and FrontEnd's trace dumps as the front end
// built it.
func TestCancelledRefinementNotKept(t *testing.T) {
	flow.ResetCache() // no source below has a refinement yet, also under go test -count
	ctx := context.Background()
	src := mustInput(t, "mcs6502").Source
	text := func(res *flow.Result) (verilog, trace string) {
		t.Helper()
		var v, d strings.Builder
		if err := res.Design.WriteVerilog(&v, "m"); err != nil {
			t.Fatal(err)
		}
		tr, err := flow.FrontEnd(ctx, res.Input)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Dump(&d); err != nil {
			t.Fatal(err)
		}
		return v.String(), d.String()
	}
	want, err := flow.Compile(ctx, flow.Input{Name: "uncancelled-refinement.isps", Source: src}, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantVerilog, wantTrace := text(want)
	cancelled := 0 // compiles cancelled inside phase 0
	for n := int64(0); ; n++ {
		in := flow.Input{Name: fmt.Sprintf("cancelled-refinement-%d.isps", n), Source: src}
		_, err := flow.Compile(newCancelAfter(n), in, flow.Options{})
		if err == nil {
			t.Fatalf("a compile cancelled at check %d succeeded", n)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d: err %v, want context.Canceled", n, err)
		}
		if !strings.Contains(err.Error(), "phase trace") {
			if strings.Contains(err.Error(), "core: phase") {
				break // past phase 0
			}
			continue // before it
		}
		cancelled++
		res, err := flow.Compile(ctx, in, flow.Options{})
		if err != nil {
			t.Fatalf("the compile after a refinement cancelled at check %d: %v", n, err)
		}
		verilog, trace := text(res)
		if verilog != wantVerilog {
			t.Errorf("the compile after a refinement cancelled at check %d built a different design", n)
		}
		if !reflect.DeepEqual(res.Synth.Stats.Untimed(), want.Synth.Stats.Untimed()) {
			t.Errorf("the compile after a refinement cancelled at check %d counted different work", n)
		}
		if trace != wantTrace {
			t.Errorf("after a refinement cancelled at check %d, FrontEnd's trace is not the trace as built", n)
		}
	}
	if cancelled < 2 {
		t.Fatalf("%d compiles were cancelled inside phase 0; want one before its engine runs and more between its cycles", cancelled)
	}
}

// TestReusedRefinementStats pins what a DAA compile reports for the
// cached refinement it binds. Its statistics equal a live
// core.SynthesizeContext run's field by field, timings aside, so phase 0's
// firings, cycles, WM peak, match calls and per-rule rows are all there;
// its phase 0 times read 0, while the compile that built the refinement
// reports real ones.
func TestReusedRefinementStats(t *testing.T) {
	flow.ResetCache() // no source below has a refinement yet, also under go test -count
	ctx := context.Background()
	in := flow.Input{Name: "reused-refinement.isps", Source: mustInput(t, "mcs6502").Source}
	first, err := flow.Compile(ctx, in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := flow.Compile(ctx, in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reused.Design.Trace != first.Design.Trace {
		t.Fatal("the second compile did not bind the first one's refinement")
	}
	trace, err := flow.FrontEnd(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.SynthesizeContext(ctx, trace, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := live.Stats.Untimed()
	for _, c := range []struct {
		name string
		res  *flow.Result
	}{{"building", first}, {"reusing", reused}} {
		st := c.res.Synth.Stats
		if got := st.Untimed(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s compile's statistics differ from a live run's:\n got %+v\nwant %+v", c.name, got, want)
		}
		if ph := st.Phases[0]; ph.Name != "trace" || ph.Firings == 0 || ph.Engine.MatchCalls == 0 {
			t.Errorf("%s compile's phase 0 row is %+v; want the trace phase's counts", c.name, ph)
		}
	}
	if ph := first.Synth.Stats.Phases[0]; ph.Elapsed == 0 {
		t.Error("the compile that built the refinement reports phase 0 as taking no time")
	}
	ph := reused.Synth.Stats.Phases[0]
	if ph.Elapsed != 0 || ph.Engine.MatchTime != 0 {
		t.Errorf("a reused refinement reports phase 0 as taking %v (match %v); want 0", ph.Elapsed, ph.Engine.MatchTime)
	}
	for _, r := range ph.Engine.Rules {
		if r.MatchTime != 0 {
			t.Errorf("a reused refinement reports rule %s matching for %v; want 0", r.Name, r.MatchTime)
		}
	}
}

func TestCompileCacheMarksFrontStages(t *testing.T) {
	in := flow.Input{Name: "cache-probe.isps", Source: "processor CP { reg A<3:0> main m { A := A + 1 } }"}
	if _, err := flow.Compile(context.Background(), in, flow.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := flow.Compile(context.Background(), in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := res.Trace.Stage(flow.StageParse)
	if !ok || !st.Cached {
		t.Errorf("second compile's parse stage not cache-served: %+v", res.Trace.Stages)
	}
	flow.ResetCache()
	cold, err := flow.Compile(context.Background(), in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := cold.Trace.Stage(flow.StageParse); st.Cached {
		t.Error("compile after ResetCache reported a cached parse stage")
	}
}

func TestRunAllOrderAndErrors(t *testing.T) {
	var calls atomic.Int64
	out := make([]int, 50)
	err := flow.RunAll(context.Background(), len(out), func(ctx context.Context, i int) error {
		calls.Add(1)
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != int64(len(out)) {
		t.Fatalf("calls %d, want %d", calls.Load(), len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	boom := errors.New("boom")
	err = flow.RunAll(context.Background(), 20, func(ctx context.Context, i int) error {
		if i == 3 || i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
}
