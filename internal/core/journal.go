package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bind"
	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// The DAA's effect journal. Every rule action routes its design mutations
// through Tx.Do into the effect table below (synth.Apply); with
// Options.Journal set each phase engine records the firings, and Replay
// re-applies a journal against a fresh trace to reproduce the design
// byte-identically. The appliers are pure applications of decisions
// already present in their arguments — the decisions themselves (step
// choice, operand orientation, merge candidates) live in the rule actions
// and Where clauses, which replay never re-evaluates.

// Journal is the complete record of one synthesis run: one prod.Journal
// per executed phase, in phase order.
type Journal struct {
	Design string
	Phases []PhaseJournal
}

// PhaseJournal pairs a phase name with its engine journal.
type PhaseJournal struct {
	Phase string
	J     *prod.Journal
}

// Counts reports total firings and effects across all phases.
func (j *Journal) Counts() (firings, effects int) {
	for _, pj := range j.Phases {
		f, e := pj.J.Counts()
		firings += f
		effects += e
	}
	return firings, effects
}

// WriteText renders the journal phase by phase in the prod text format.
func (j *Journal) WriteText(w io.Writer) {
	fmt.Fprintf(w, "effect journal for %s\n", j.Design)
	for _, pj := range j.Phases {
		f, e := pj.J.Counts()
		fmt.Fprintf(w, "\nphase %s (%d firings, %d effects)\n", pj.Phase, f, e)
		pj.J.WriteText(w)
	}
}

// encodeRef translates value-trace and design pointers into journal Refs.
// Value-trace IDs are stable under refinement (operators are only mutated
// in place or removed); design IDs are allocated by a deterministic
// counter, so a replay that applies the same effects in the same order
// reproduces them.
func encodeRef(v any) (prod.Ref, bool) {
	switch x := v.(type) {
	case *vt.Op:
		return prod.Ref{Kind: "op", ID: x.ID}, true
	case *vt.Value:
		return prod.Ref{Kind: "val", ID: x.ID}, true
	case *vt.Carrier:
		return prod.Ref{Kind: "car", ID: x.ID}, true
	case *vt.Body:
		return prod.Ref{Kind: "body", ID: x.ID}, true
	case *rtl.Register:
		return prod.Ref{Kind: "reg", ID: x.ID}, true
	case *rtl.Memory:
		return prod.Ref{Kind: "mem", ID: x.ID}, true
	case *rtl.Port:
		return prod.Ref{Kind: "port", ID: x.ID}, true
	case *rtl.Unit:
		return prod.Ref{Kind: "unit", ID: x.ID}, true
	case *rtl.Mux:
		return prod.Ref{Kind: "mux", ID: x.ID}, true
	case *rtl.Junction:
		return prod.Ref{Kind: "junction", ID: x.ID}, true
	case *rtl.Constant:
		return prod.Ref{Kind: "const", ID: x.ID}, true
	case *rtl.Link:
		return prod.Ref{Kind: "link", ID: x.ID}, true
	case *rtl.State:
		return prod.Ref{Kind: "state", ID: x.ID}, true
	}
	return prod.Ref{}, false
}

// newDecoder resolves journal Refs at replay against one index: the fresh
// trace's operators, values, carriers and bodies (refinement never creates
// nodes), and each design component the replayed effects create,
// registered through the design's Observe hook.
func newDecoder(tr *vt.Program, d *rtl.Design) func(prod.Ref) (any, error) {
	refs := map[prod.Ref]any{}
	add := func(x any) {
		if ref, ok := encodeRef(x); ok {
			refs[ref] = x
		}
	}
	for _, op := range tr.AllOps() {
		add(op)
		for _, v := range append([]*vt.Value{op.Result, op.CondVal}, op.Args...) {
			if v != nil {
				add(v)
			}
		}
	}
	for _, c := range tr.Carriers {
		add(c)
	}
	for _, b := range tr.Bodies {
		add(b)
	}
	d.Observe(add)
	return func(r prod.Ref) (any, error) {
		if x, ok := refs[r]; ok {
			return x, nil
		}
		return nil, fmt.Errorf("core: unresolved journal ref %s", r)
	}
}

// Apply is the engines' prod.Host, re-used verbatim by Replay: it sets the
// provenance cursor and applies the named entry of the effect table. Its
// callers, Tx.Do and the replayer, name the effect in its errors.
func (s *synth) Apply(name string, args []any) (any, error) {
	if s.prov != nil {
		s.prov.cur = FiringRef{Phase: s.phase, Seq: s.seq()}
	}
	apply, ok := effects[name]
	if !ok {
		return nil, errors.New("core: unknown effect")
	}
	return apply(s, args)
}

// An applier applies one effect to a synthesis. It updates the design,
// the synthesis bookkeeping (step schedules, unit busyness, register
// occupancy) so post-phase hooks behave identically when recording and
// replaying, and, for the four trace-refinement effects only, the value
// trace; it never touches working memory.
type applier func(s *synth, args []any) (any, error)

// arg returns argument i of an effect as a T. A journal with the right
// shape always satisfies it, so a failure means a corrupt journal.
func arg[T any](args []any, i int) (T, error) {
	var zero T
	if i >= len(args) {
		return zero, fmt.Errorf("missing argument %d", i)
	}
	v, ok := args[i].(T)
	if !ok {
		return zero, fmt.Errorf("argument %d is %T, want %T", i, args[i], zero)
	}
	return v, nil
}

// on1 makes an applier of an effect taking one typed argument.
func on1[A any](f func(*synth, A) (any, error)) applier {
	return func(s *synth, args []any) (any, error) {
		a, err := arg[A](args, 0)
		if err != nil {
			return nil, err
		}
		return f(s, a)
	}
}

// on2 makes an applier of an effect taking two typed arguments.
func on2[A, B any](f func(*synth, A, B) (any, error)) applier {
	return func(s *synth, args []any) (any, error) {
		a, err := arg[A](args, 0)
		if err != nil {
			return nil, err
		}
		b, err := arg[B](args, 1)
		if err != nil {
			return nil, err
		}
		return f(s, a, b)
	}
}

// effects is the DAA's effect table, one entry per name a rule action
// passes to Tx.Do, grouped by the phase whose rules use it.
var effects = map[string]applier{
	// trace refinement: the only writers of the value trace
	"become-test": on1(func(_ *synth, op *vt.Op) (any, error) { return nil, vt.BecomeTest(op) }),
	"become-not":  on1(func(_ *synth, op *vt.Op) (any, error) { return nil, vt.BecomeNot(op) }),
	"replace-uses": on2(func(s *synth, old, new *vt.Value) (any, error) {
		return nil, vt.ReplaceUses(s.tr, old, new)
	}),
	"remove-op": on1(func(s *synth, op *vt.Op) (any, error) { return nil, vt.RemoveOp(s.tr, op) }),

	// data/memory allocation
	"bind-carrier-reg": on1(func(s *synth, car *vt.Carrier) (any, error) {
		r := s.d.AddRegister(car.Name, car.Width)
		s.d.CarrierReg[car] = r
		return r, nil
	}),
	"bind-carrier-mem": on1(func(s *synth, car *vt.Carrier) (any, error) {
		m := s.d.AddMemory(car.Name, car.Width, car.Words)
		s.d.CarrierMem[car] = m
		return m, nil
	}),
	"bind-carrier-port": on2(func(s *synth, car *vt.Carrier, in bool) (any, error) {
		p := s.d.AddPort(car.Name, car.Width, in)
		s.d.CarrierPort[car] = p
		return p, nil
	}),

	// control-step allocation
	"place-op": on2(func(s *synth, op *vt.Op, step int) (any, error) {
		// Each new step holds the operator that opens it, so no placement
		// reaches a step past the body's operator count.
		if step < 0 || step >= len(op.Body.Ops) {
			return nil, fmt.Errorf("operator %d at step %d, want a step in [0, %d)", op.ID, step, len(op.Body.Ops))
		}
		s.steps[op.Body].Place(op, step)
		if s.prov != nil {
			s.prov.opPlace[op] = s.prov.cur
		}
		return nil, nil
	}),

	// operator allocation and binding
	"bind-op-unit": on2(func(s *synth, op *vt.Op, u *rtl.Unit) (any, error) {
		s.bindOpToUnit(op, u)
		return nil, nil
	}),
	"alloc-unit": on1(func(s *synth, op *vt.Op) (any, error) {
		n := 0
		for _, u := range s.d.Units {
			if u.Has(op.Kind) {
				n++
			}
		}
		u := s.d.AddUnit(fmt.Sprintf("%s%d", op.Kind, n), op.UnitWidth(), op.Kind)
		s.bindOpToUnit(op, u)
		return u, nil
	}),

	// value (holding-register) allocation
	"share-value-reg": on2(func(s *synth, v *vt.Value, r *rtl.Register) (any, error) {
		if v.Width > r.Width {
			r.Width = v.Width
		}
		s.d.ValueReg[v] = r
		s.regVals[r] = append(s.regVals[r], v)
		return nil, nil
	}),
	"alloc-value-reg": on1(func(s *synth, v *vt.Value) (any, error) {
		r := s.d.AddRegister(fmt.Sprintf("t%d", len(s.regVals)), v.Width)
		s.d.ValueReg[v] = r
		s.regVals[r] = append(s.regVals[r], v)
		return r, nil
	}),

	// data-path allocation
	"add-const": on2(func(s *synth, val, w int) (any, error) { return s.d.AddConst(uint64(val), w), nil }),
	"orient-op": on2(func(s *synth, op *vt.Op, swap bool) (any, error) {
		if !commutes(op) {
			return nil, fmt.Errorf("operator %d is a %d-operand %s, want a two-operand commutative operator",
				op.ID, len(op.Args), op.Kind)
		}
		if swap {
			s.d.SwapOperands(op)
		}
		return nil, nil
	}),
	"route-op": on1(func(s *synth, op *vt.Op) (any, error) {
		if s.prov != nil {
			s.prov.opRoute[op] = s.prov.cur
		}
		return nil, s.routeOp(op)
	}),
	"route-park": on1(func(s *synth, v *vt.Value) (any, error) {
		if s.prov != nil {
			s.prov.parkRoute[v] = s.prov.cur
		}
		return nil, bind.Realize(s.d, s.d.ParkTransfer(v))
	}),

	// global improvement
	"merge-regs": on2(func(s *synth, r1, r2 *rtl.Register) (any, error) {
		if r2.Width > r1.Width {
			r1.Width = r2.Width
		}
		for _, v := range s.regVals[r2] {
			s.d.ValueReg[v] = r1
		}
		s.regVals[r1] = append(s.regVals[r1], s.regVals[r2]...)
		delete(s.regVals, r2)
		s.d.RemoveRegister(r2)
		return nil, nil
	}),
	"fold-units": on2(func(s *synth, u1, u2 *rtl.Unit) (any, error) {
		//daalint:allow detmap order-insensitive set union
		for k := range u2.Fns {
			u1.Fns[k] = true
		}
		if u2.Width > u1.Width {
			u1.Width = u2.Width
		}
		//daalint:allow detmap order-insensitive value rewrite
		for op, u := range s.d.OpUnit {
			if u == u2 {
				s.d.OpUnit[op] = u1
			}
		}
		s.d.RemoveUnit(u2)
		return nil, nil
	}),
}

// Replay re-applies a recorded journal against the unrefined trace the
// recorded run started from (flow.FrontEnd's cached trace) and returns the
// reproduced design. Rule left-hand sides are never re-matched: only the
// journaled effects run, followed by the same deterministic post-phase
// hooks as Synthesize. Replay never writes trace: the journal's
// trace-refinement effects rewrite a copy, which the design binds. Unlike
// Synthesize, Replay validates its result, because a journal may come
// from outside the process. The result must be byte-identical to the
// recorded run's design; the journal tests assert it across every
// embedded benchmark.
func Replay(trace *vt.Program, j *Journal, opt Options) (*rtl.Design, error) {
	opt.Journal = false
	tr := vt.Clone(trace)
	s := newSynth(tr, opt.Limits.ForProgram(tr), opt)
	decode := newDecoder(s.tr, s.d)
	for _, pj := range j.Phases {
		i := phaseIndex(pj.Phase)
		if i == len(knowledgeBase) {
			return nil, fmt.Errorf("core: replay phase %s: not a phase of the knowledge base", pj.Phase)
		}
		s.phase = pj.Phase
		curSeq := 0
		s.seq = func() int { return curSeq }
		rep := &prod.Replayer{
			WM:       prod.NewWM(knowledgeBase[i].Schema),
			Decode:   decode,
			Host:     s,
			OnFiring: func(f *prod.Firing) { curSeq = f.Seq },
		}
		if err := rep.Run(pj.J); err != nil {
			return nil, fmt.Errorf("core: replay phase %s: %w", pj.Phase, err)
		}
		if post := knowledgeBase[i].post; post != nil {
			if err := post(s); err != nil {
				return nil, fmt.Errorf("core: replay phase %s: %w", pj.Phase, err)
			}
		}
	}
	if _, err := s.d.Validate(); err != nil {
		return nil, fmt.Errorf("core: replayed design invalid: %w", err)
	}
	return s.d, nil
}
