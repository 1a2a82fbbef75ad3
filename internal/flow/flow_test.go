package flow_test

// External test package so the tests can compile real benchmark sources
// through internal/bench (which itself sits on top of flow).

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/prod"
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

// TestFrontEndSharesOneTrace pins that the artifact cache hands out its
// one value trace: FrontEnd returns the same trace for one source, and a
// DAA compile with its trace rules on refines a copy of its own, which
// its design binds, and leaves the shared trace's dump unchanged.
func TestFrontEndSharesOneTrace(t *testing.T) {
	ctx := context.Background()
	in := mustInput(t, "mcs6502")
	shared, err := flow.FrontEnd(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := flow.FrontEnd(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if again != shared {
		t.Fatal("FrontEnd returned two traces for one source; want the cached one")
	}
	dump := func() string {
		var b strings.Builder
		if err := shared.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := dump()
	res, err := flow.Compile(ctx, in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Design.Trace == shared {
		t.Error("the DAA's design binds the shared trace, not a refined copy")
	}
	if dump() != before {
		t.Error("a DAA compile rewrote the shared front-end trace")
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
