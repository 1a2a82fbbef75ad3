package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sched"
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
