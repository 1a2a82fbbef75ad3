package core_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sched"
	"repro/internal/vt"
)

// TestDAAHonorsLimits reads every body's control steps back from the
// DAA's design into a sched.Schedule and verifies it under the limits the
// design was synthesized with: an operator cap per step, or two units of
// every compute kind. The steps hold the operators of the refined trace
// the design binds, not of the loaded one.
func TestDAAHonorsLimits(t *testing.T) {
	for _, name := range bench.Names() {
		tr, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		twoEach := sched.Limits{}.ForProgram(tr).UnitsPerKind
		for k := range twoEach {
			twoEach[k] = 2
		}
		for _, lim := range []sched.Limits{{MaxOpsPerStep: 1}, {MaxOpsPerStep: 2}, {UnitsPerKind: twoEach}} {
			res, err := core.Synthesize(tr, core.Options{Limits: lim})
			if err != nil {
				t.Fatalf("%s %+v: %v", name, lim, err)
			}
			d := res.Design
			for _, b := range d.Trace.Bodies {
				s := sched.New(b)
				for i, st := range d.Steps(b.Name) {
					for _, op := range st.Ops {
						s.Place(op, i)
					}
				}
				if err := s.Verify(lim.ForProgram(d.Trace)); err != nil {
					t.Errorf("%s %+v: %v", name, lim, err)
				}
			}
		}
	}
}

// TestDefaultCapsReadTraceAsBuilt pins where the default unit caps come
// from: the compute kinds of the trace as built, read before phase 0
// turns the two wide "neq 0" comparisons below into tests. "test" is not
// a kind of that trace, so it is uncapped and both tests share the first
// step, whether the synthesis refines a copy of its own or binds flow's
// cached refinement. Caps read from the refined trace would hold one test
// per step.
func TestDefaultCapsReadTraceAsBuilt(t *testing.T) {
	in := flow.Input{Name: "two-tests.isps", Source: `processor TWOTESTS {
    port in  X<7:0>
    port in  Y<7:0>
    reg   A<0:0>
    reg   B<0:0>
    main run {
        A := X neq 0
        B := Y neq 0
    }
}`}
	ctx := context.Background()
	trace, err := flow.FrontEnd(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.Synthesize(trace, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := flow.Compile(ctx, in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		res  *core.Result
	}{{"live", live}, {"cached refinement", cached.Synth}} {
		tests := 0
		for _, op := range d.res.Design.Trace.AllOps() {
			if op.Kind != vt.OpTest {
				continue
			}
			tests++
			if st := d.res.Design.OpState[op]; st == nil || st.Index != 0 {
				t.Errorf("%s: test operator %d sits in step %v, want step 0", d.name, op.ID, st)
			}
		}
		if tests != 2 {
			t.Errorf("%s: %d test operators after refinement, want 2", d.name, tests)
		}
	}
}
