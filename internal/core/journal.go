package core

import (
	"fmt"
	"io"

	"repro/internal/bind"
	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// The DAA's effect journal. Every rule action routes its design mutations
// through Tx.Do into the applier registry below (synth.Apply); with
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

// decoder resolves journal Refs at replay: value-trace refs against an
// index of the fresh trace (built once — refinement never creates nodes),
// design refs against the components the replayed effects have created so
// far (registered through the design's Observe hook).
type decoder struct {
	ops    map[int]*vt.Op
	vals   map[int]*vt.Value
	cars   map[int]*vt.Carrier
	bodies map[int]*vt.Body
	comps  map[prod.Ref]any
}

func newDecoder(tr *vt.Program, d *rtl.Design) *decoder {
	dec := &decoder{
		ops:    map[int]*vt.Op{},
		vals:   map[int]*vt.Value{},
		cars:   map[int]*vt.Carrier{},
		bodies: map[int]*vt.Body{},
		comps:  map[prod.Ref]any{},
	}
	addVal := func(v *vt.Value) {
		if v != nil {
			dec.vals[v.ID] = v
		}
	}
	for _, op := range tr.AllOps() {
		dec.ops[op.ID] = op
		addVal(op.Result)
		addVal(op.CondVal)
		for _, a := range op.Args {
			addVal(a)
		}
	}
	for _, c := range tr.Carriers {
		dec.cars[c.ID] = c
	}
	for _, b := range tr.Bodies {
		dec.bodies[b.ID] = b
	}
	d.Observe(func(c any) {
		if ref, ok := encodeRef(c); ok {
			dec.comps[ref] = c
		}
	})
	return dec
}

func (dec *decoder) decode(r prod.Ref) (any, error) {
	var v any
	var ok bool
	switch r.Kind {
	case "op":
		v, ok = dec.ops[r.ID], dec.ops[r.ID] != nil
	case "val":
		v, ok = dec.vals[r.ID], dec.vals[r.ID] != nil
	case "car":
		v, ok = dec.cars[r.ID], dec.cars[r.ID] != nil
	case "body":
		v, ok = dec.bodies[r.ID], dec.bodies[r.ID] != nil
	default:
		c, have := dec.comps[r]
		v, ok = c, have
	}
	if !ok {
		return nil, fmt.Errorf("core: unresolved journal ref %s", r)
	}
	return v, nil
}

// Argument accessors for the appliers: a journal with the right shape
// always satisfies them, so failures indicate journal corruption.
func effArg[T any](name string, args []any, i int) (T, error) {
	var zero T
	if i >= len(args) {
		return zero, fmt.Errorf("effect %s: missing argument %d", name, i)
	}
	v, ok := args[i].(T)
	if !ok {
		return zero, fmt.Errorf("effect %s: argument %d is %T, want %T", name, i, args[i], zero)
	}
	return v, nil
}

// Apply is the effect registry behind the phase engines' Tx.Do, re-used
// verbatim by Replay: it makes the synthesis the engines' prod.Host. It
// updates the design, the trace, and the synthesis bookkeeping (step
// usage, unit busyness, register occupancy) so post-phase hooks behave
// identically in both modes; it never touches working memory.
func (s *synth) Apply(name string, args []any) (any, error) {
	if s.prov != nil {
		s.prov.cur = FiringRef{Phase: s.phase, Seq: s.seq()}
	}
	switch name {
	// --- trace refinement ---
	case "become-test":
		op, err := effArg[*vt.Op](name, args, 0)
		if err != nil {
			return nil, err
		}
		return nil, vt.BecomeTest(op)
	case "become-not":
		op, err := effArg[*vt.Op](name, args, 0)
		if err != nil {
			return nil, err
		}
		return nil, vt.BecomeNot(op)
	case "replace-uses":
		old, err := effArg[*vt.Value](name, args, 0)
		if err != nil {
			return nil, err
		}
		new, err := effArg[*vt.Value](name, args, 1)
		if err != nil {
			return nil, err
		}
		return nil, vt.ReplaceUses(s.tr, old, new)
	case "remove-op":
		op, err := effArg[*vt.Op](name, args, 0)
		if err != nil {
			return nil, err
		}
		return nil, vt.RemoveOp(s.tr, op)

	// --- data/memory allocation ---
	case "bind-carrier-reg":
		car, err := effArg[*vt.Carrier](name, args, 0)
		if err != nil {
			return nil, err
		}
		r := s.d.AddRegister(car.Name, car.Width)
		s.d.CarrierReg[car] = r
		return r, nil
	case "bind-carrier-mem":
		car, err := effArg[*vt.Carrier](name, args, 0)
		if err != nil {
			return nil, err
		}
		m := s.d.AddMemory(car.Name, car.Width, car.Words)
		s.d.CarrierMem[car] = m
		return m, nil
	case "bind-carrier-port":
		car, err := effArg[*vt.Carrier](name, args, 0)
		if err != nil {
			return nil, err
		}
		in, err := effArg[bool](name, args, 1)
		if err != nil {
			return nil, err
		}
		p := s.d.AddPort(car.Name, car.Width, in)
		s.d.CarrierPort[car] = p
		return p, nil

	// --- control-step allocation ---
	case "place-op":
		op, err := effArg[*vt.Op](name, args, 0)
		if err != nil {
			return nil, err
		}
		step, err := effArg[int](name, args, 1)
		if err != nil {
			return nil, err
		}
		s.steps[op.Body].Place(op, step)
		if s.prov != nil {
			s.prov.opPlace[op] = s.prov.cur
		}
		return nil, nil

	// --- operator allocation and binding ---
	case "bind-op-unit":
		op, err := effArg[*vt.Op](name, args, 0)
		if err != nil {
			return nil, err
		}
		u, err := effArg[*rtl.Unit](name, args, 1)
		if err != nil {
			return nil, err
		}
		s.bindOpToUnit(op, u)
		return nil, nil
	case "alloc-unit":
		op, err := effArg[*vt.Op](name, args, 0)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, u := range s.d.Units {
			if u.Has(op.Kind) {
				n++
			}
		}
		u := s.d.AddUnit(fmt.Sprintf("%s%d", op.Kind, n), op.UnitWidth(), op.Kind)
		s.bindOpToUnit(op, u)
		return u, nil

	// --- value (holding-register) allocation ---
	case "share-value-reg":
		v, err := effArg[*vt.Value](name, args, 0)
		if err != nil {
			return nil, err
		}
		r, err := effArg[*rtl.Register](name, args, 1)
		if err != nil {
			return nil, err
		}
		if v.Width > r.Width {
			r.Width = v.Width
		}
		s.d.ValueReg[v] = r
		s.regVals[r] = append(s.regVals[r], v)
		return nil, nil
	case "alloc-value-reg":
		v, err := effArg[*vt.Value](name, args, 0)
		if err != nil {
			return nil, err
		}
		r := s.d.AddRegister(fmt.Sprintf("t%d", len(s.regVals)), v.Width)
		s.d.ValueReg[v] = r
		s.regVals[r] = append(s.regVals[r], v)
		return r, nil

	// --- data-path allocation ---
	case "add-const":
		val, err := effArg[int](name, args, 0)
		if err != nil {
			return nil, err
		}
		w, err := effArg[int](name, args, 1)
		if err != nil {
			return nil, err
		}
		return s.d.AddConst(uint64(val), w), nil
	case "orient-op":
		op, err := effArg[*vt.Op](name, args, 0)
		if err != nil {
			return nil, err
		}
		swap, err := effArg[bool](name, args, 1)
		if err != nil {
			return nil, err
		}
		if swap {
			op.Args[0], op.Args[1] = op.Args[1], op.Args[0]
		}
		return nil, nil
	case "route-op":
		op, err := effArg[*vt.Op](name, args, 0)
		if err != nil {
			return nil, err
		}
		if s.prov != nil {
			s.prov.opRoute[op] = s.prov.cur
		}
		return nil, s.routeOp(op)
	case "route-park":
		v, err := effArg[*vt.Value](name, args, 0)
		if err != nil {
			return nil, err
		}
		if s.prov != nil {
			s.prov.parkRoute[v] = s.prov.cur
		}
		return nil, bind.Realize(s.d, s.d.ParkTransfer(v))

	// --- global improvement ---
	case "merge-regs":
		r1, err := effArg[*rtl.Register](name, args, 0)
		if err != nil {
			return nil, err
		}
		r2, err := effArg[*rtl.Register](name, args, 1)
		if err != nil {
			return nil, err
		}
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
	case "fold-units":
		u1, err := effArg[*rtl.Unit](name, args, 0)
		if err != nil {
			return nil, err
		}
		u2, err := effArg[*rtl.Unit](name, args, 1)
		if err != nil {
			return nil, err
		}
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
	}
	return nil, fmt.Errorf("core: unknown effect %q", name)
}

// Replay re-applies a recorded journal against a fresh, unrefined trace
// (the same one the recorded run started from — flow.FrontEnd hands out
// identical clones) and returns the reproduced design. Rule left-hand
// sides are never re-matched: only the journaled effects run, followed by
// the same deterministic post-phase hooks as Synthesize. Unlike
// Synthesize, Replay validates its result, because a journal may come
// from outside the process. The result must be byte-identical to the
// recorded run's design; the journal tests assert it across every
// embedded benchmark.
func Replay(trace *vt.Program, j *Journal, opt Options) (*rtl.Design, error) {
	opt.Journal = false
	s := newSynth(trace, opt)
	dec := newDecoder(trace, s.d)
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
			Decode:   dec.decode,
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
