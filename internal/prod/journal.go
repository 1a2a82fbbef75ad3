package prod

// The effect journal makes rule right-hand sides observable data. Actions
// receive a Tx instead of the engine: working-memory operations still go
// through WM (the engine's change stream records them), and host-state
// mutations — the DAA rules grow an rtl.Design — go through Tx.Do, which
// dispatches to the Host installed on the engine. With journaling enabled
// every firing is appended to a Journal as (seq, rule, bindings, effects);
// a Replayer re-applies a journal against fresh state and must reproduce
// it exactly, which is the machine-checked proof that the journal captured
// every mutation.

import (
	"fmt"
	"io"
	"reflect"
)

// Ref is a journaled reference into host state (outside working memory).
// The host's encoder assigns kinds and IDs; the decoder resolves them at
// replay. IDs must be stable across a record/replay pair — the DAA uses
// the value-trace node IDs and the deterministic rtl component IDs.
type Ref struct {
	Kind string
	ID   int
}

func (r Ref) String() string { return fmt.Sprintf("%s:%d", r.Kind, r.ID) }

// Value is one journaled value: a self-contained scalar, a Ref into host
// state, or — when the engine's encoder could not translate it — an opaque
// marker that makes the journal non-replayable but keeps it renderable.
// The zero Value means "absent" (an attribute unset by a modify).
type Value struct {
	Ref    *Ref
	Scalar any
	Opaque string // Go type name when the value could not be encoded
}

// IsNil reports whether the value is the absent marker.
func (v Value) IsNil() bool { return v.Ref == nil && v.Scalar == nil && v.Opaque == "" }

func (v Value) String() string {
	switch {
	case v.Opaque != "":
		return "opaque<" + v.Opaque + ">"
	case v.Ref != nil:
		return v.Ref.String()
	case v.Scalar == nil:
		return "nil"
	default:
		return fmt.Sprintf("%v", v.Scalar)
	}
}

// EffectKind discriminates journal entries.
type EffectKind uint8

const (
	EffMake   EffectKind = iota // working-memory make
	EffModify                   // working-memory modify
	EffRemove                   // working-memory remove
	EffHalt                     // the firing halted the engine
	EffDo                       // registered host effect (Tx.Do)
)

func (k EffectKind) String() string {
	switch k {
	case EffMake:
		return "make"
	case EffModify:
		return "modify"
	case EffRemove:
		return "remove"
	case EffHalt:
		return "halt"
	case EffDo:
		return "do"
	}
	return fmt.Sprintf("effect(%d)", int(k))
}

// AttrValue is one attribute of a journaled make or modify. A zero Val on
// a modify records an unset.
type AttrValue struct {
	Attr string
	Val  Value
}

// Effect is one journaled mutation.
type Effect struct {
	Kind   EffectKind
	Class  string      // EffMake: element class
	Elem   int         // EffMake/EffModify/EffRemove: working-memory element ID
	Attrs  []AttrValue // EffMake: all attributes; EffModify: the changed ones
	Name   string      // EffDo: registered effect name
	Args   []Value     // EffDo
	Result *Value      // EffDo: the applier's return value, when encodable and non-nil
}

// Refs calls f for every host Ref the effect mentions (arguments, result,
// attribute values). Provenance indexing walks the journal with this.
func (e *Effect) Refs(f func(Ref)) {
	for _, a := range e.Args {
		if a.Ref != nil {
			f(*a.Ref)
		}
	}
	if e.Result != nil && e.Result.Ref != nil {
		f(*e.Result.Ref)
	}
	for _, av := range e.Attrs {
		if av.Val.Ref != nil {
			f(*av.Val.Ref)
		}
	}
}

func (e *Effect) writeText(w io.Writer, indent string) {
	switch e.Kind {
	case EffMake:
		fmt.Fprintf(w, "%smake %s #%d", indent, e.Class, e.Elem)
		for _, av := range e.Attrs {
			fmt.Fprintf(w, " ^%s %s", av.Attr, av.Val)
		}
		fmt.Fprintln(w)
	case EffModify:
		fmt.Fprintf(w, "%smodify #%d", indent, e.Elem)
		for _, av := range e.Attrs {
			if av.Val.IsNil() {
				fmt.Fprintf(w, " ^%s <unset>", av.Attr)
			} else {
				fmt.Fprintf(w, " ^%s %s", av.Attr, av.Val)
			}
		}
		fmt.Fprintln(w)
	case EffRemove:
		fmt.Fprintf(w, "%sremove #%d\n", indent, e.Elem)
	case EffHalt:
		fmt.Fprintf(w, "%shalt\n", indent)
	case EffDo:
		fmt.Fprintf(w, "%sdo %s(", indent, e.Name)
		for i, a := range e.Args {
			if i > 0 {
				io.WriteString(w, ", ")
			}
			io.WriteString(w, a.String())
		}
		io.WriteString(w, ")")
		if e.Result != nil {
			fmt.Fprintf(w, " -> %s", e.Result)
		}
		fmt.Fprintln(w)
	}
}

// Binding is one pattern-variable binding recorded with a firing.
type Binding struct {
	Name string
	Val  Value
}

// Firing is one journaled rule firing: the instantiation that fired and
// the ordered effects it produced.
type Firing struct {
	Seq      int // 1-based firing sequence within the engine run
	Cycle    int // recognize-act cycle the firing happened on
	Rule     string
	Elements []int // matched working-memory element IDs, in pattern order
	Bindings []Binding
	Effects  []Effect
}

// Journal is the append-only record of one engine run: the working-memory
// effects of seeding (everything made before the first cycle) followed by
// every firing.
type Journal struct {
	Seed    []Effect
	Firings []*Firing
	// Opaque counts values the encoder could not translate. A journal with
	// Opaque > 0 still renders but refuses to replay.
	Opaque int
}

// Counts reports the number of firings and total effects (seed included).
func (j *Journal) Counts() (firings, effects int) {
	effects = len(j.Seed)
	for _, f := range j.Firings {
		effects += len(f.Effects)
	}
	return len(j.Firings), effects
}

// WriteText renders the journal as an indented text log, one line per
// effect. The format is deterministic; -journal dumps and tests rely on it.
func (j *Journal) WriteText(w io.Writer) {
	if len(j.Seed) > 0 {
		fmt.Fprintln(w, "seed:")
		for i := range j.Seed {
			j.Seed[i].writeText(w, "    ")
		}
	}
	for _, f := range j.Firings {
		fmt.Fprintf(w, "%4d [cycle %d] %s ", f.Seq, f.Cycle, f.Rule)
		for i, id := range f.Elements {
			if i > 0 {
				io.WriteString(w, " ")
			}
			fmt.Fprintf(w, "#%d", id)
		}
		fmt.Fprintln(w)
		if len(f.Bindings) > 0 {
			io.WriteString(w, "     binds:")
			for _, b := range f.Bindings {
				fmt.Fprintf(w, " %s=%s", b.Name, b.Val)
			}
			fmt.Fprintln(w)
		}
		for i := range f.Effects {
			f.Effects[i].writeText(w, "     ")
		}
	}
}

// RecordJournal enables journaling on the engine and returns the journal
// being filled. encode translates host values (pointers into the value
// trace or the design) to Refs; it may be nil when actions only store
// scalars. Every working-memory change from this point on is recorded —
// changes before the first cycle land in Journal.Seed, changes during a
// firing in that firing's effect list.
func (e *Engine) RecordJournal(encode func(any) (Ref, bool)) *Journal {
	e.jr = &Journal{}
	e.jrEnc = encode
	return e.jr
}

// encodeVal translates an attribute or argument value for the journal.
func (e *Engine) encodeVal(v any) Value {
	if v == nil {
		return Value{}
	}
	switch v.(type) {
	case int, string, bool, int64, uint64, float64:
		return Value{Scalar: v}
	}
	if e.jrEnc != nil {
		if r, ok := e.jrEnc(v); ok {
			return Value{Ref: &r}
		}
	}
	// Named basic types (enum-style ints, string kinds) are self-contained.
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		return Value{Scalar: v}
	}
	e.jr.Opaque++
	return Value{Opaque: fmt.Sprintf("%T", v)}
}

// recordChange journals one working-memory change, attributing it to the
// current firing or, before the first cycle, to the seed.
func (e *Engine) recordChange(c Change) {
	var eff Effect
	switch c.Kind {
	case ChangeMake:
		eff = Effect{Kind: EffMake, Class: c.El.Class, Elem: c.El.ID}
		eff.Attrs = e.attrValues(c.El, c.El.attrNames())
	case ChangeModify:
		// An unset attribute encodes as the zero Value.
		eff = Effect{Kind: EffModify, Elem: c.El.ID}
		eff.Attrs = e.attrValues(c.El, c.ChangedAttrs())
	case ChangeRemove:
		eff = Effect{Kind: EffRemove, Elem: c.El.ID}
	}
	if e.cur != nil {
		e.cur.Effects = append(e.cur.Effects, eff)
	} else {
		e.jr.Seed = append(e.jr.Seed, eff)
	}
}

// attrValues encodes el's values of the named attributes, nil for none.
func (e *Engine) attrValues(el *Element, names []string) []AttrValue {
	if len(names) == 0 {
		return nil
	}
	avs := make([]AttrValue, len(names))
	for i, k := range names {
		avs[i] = AttrValue{Attr: k, Val: e.encodeVal(el.Get(k))}
	}
	return avs
}

// Tx is the transaction handle a rule action fires through. Make, Modify
// and Remove are an action's only way into working memory (the engine's
// WM, whose change stream the journal records); Do dispatches registered
// host effects. Actions must route every mutation through the Tx — it is
// the only argument they get.
type Tx struct {
	e *Engine
	m *Match
}

// Make creates a working-memory element.
func (t *Tx) Make(class string, attrs Attrs) *Element { return t.e.WM.Make(class, attrs) }

// Modify updates attributes of a live element.
func (t *Tx) Modify(el *Element, attrs Attrs) { t.e.WM.Modify(el, attrs) }

// Remove deletes an element from working memory.
func (t *Tx) Remove(el *Element) { t.e.WM.Remove(el) }

// Halt stops the engine after this firing completes.
func (t *Tx) Halt() {
	if t.e.cur != nil {
		t.e.cur.Effects = append(t.e.cur.Effects, Effect{Kind: EffHalt})
	}
	t.e.Halt()
}

// Host returns the engine's host: the state outside working memory the
// rule base reads and, through Do, changes.
func (t *Tx) Host() Host { return t.e.Host }

// Do executes the named host effect with args through the engine's Host,
// journaling the call (and its result, when encodable) before application.
// Host.Apply must be a pure application of pre-computed decisions — Do is
// replayed verbatim — and must not mutate working memory. When it fails,
// the engine keeps the first such error, halts after this firing, and Run
// returns the error; the action gets it too, and should just return.
func (t *Tx) Do(name string, args ...any) (any, error) {
	e := t.e
	if e.Host == nil {
		panic(fmt.Sprintf("prod: rule %s: Do(%q) with no Host on the engine", t.m.Rule.Name, name))
	}
	idx := -1
	if e.jr != nil && e.cur != nil {
		eff := Effect{Kind: EffDo, Name: name}
		for _, a := range args {
			eff.Args = append(eff.Args, e.encodeVal(a))
		}
		e.cur.Effects = append(e.cur.Effects, eff)
		idx = len(e.cur.Effects) - 1
	}
	res, err := e.Host.Apply(name, args)
	if err != nil {
		err = fmt.Errorf("prod: rule %s: effect %s: %w", t.m.Rule.Name, name, err)
		if e.err == nil {
			e.err = err
		}
		t.Halt()
		return nil, err
	}
	if res != nil && idx >= 0 {
		v := e.encodeVal(res)
		e.cur.Effects[idx].Result = &v
	}
	return res, nil
}

// Replayer re-applies a journal against a fresh working memory and host
// state. Decode resolves the Refs the recording encoder produced; Host is
// a fresh host of the kind the recording run used (its appliers, not the
// decisions — every decision is already in the journal). Element IDs are
// verified as effects apply: a fresh WM hands out the same IDs exactly
// when the journal captured every make. A journal may come from outside
// the process, so what the WM would panic on is an error naming the
// class, attribute or element instead: a make or modify naming vocabulary
// the WM's schema does not declare or carrying a non-comparable value,
// and a modify or remove of an element the journal never made or already
// removed.
type Replayer struct {
	WM     *WM
	Decode func(Ref) (any, error)
	Host   Host
	// OnFiring, when non-nil, runs before each firing's effects are
	// applied; hosts use it to attribute replayed mutations.
	OnFiring func(*Firing)

	elems map[int]*Element
}

// Run applies the journal in order: seed effects, then each firing.
func (r *Replayer) Run(j *Journal) error {
	if j.Opaque > 0 {
		return fmt.Errorf("prod: journal contains %d unencodable values and cannot replay", j.Opaque)
	}
	if r.elems == nil {
		r.elems = map[int]*Element{}
	}
	for i := range j.Seed {
		if err := r.applyEffect(&j.Seed[i]); err != nil {
			return fmt.Errorf("prod: replay seed: %w", err)
		}
	}
	for _, f := range j.Firings {
		if r.OnFiring != nil {
			r.OnFiring(f)
		}
		for i := range f.Effects {
			if err := r.applyEffect(&f.Effects[i]); err != nil {
				return fmt.Errorf("prod: replay firing %d (%s): %w", f.Seq, f.Rule, err)
			}
		}
	}
	return nil
}

func (r *Replayer) decode(v Value) (any, error) {
	switch {
	case v.Opaque != "":
		return nil, fmt.Errorf("opaque value %s", v.Opaque)
	case v.Ref != nil:
		if r.Decode == nil {
			return nil, fmt.Errorf("ref %s with no decoder", v.Ref)
		}
		return r.Decode(*v.Ref)
	default:
		return v.Scalar, nil
	}
}

// attrValue decodes a journaled attribute value, refusing one the WM
// cannot hold: working-memory values must be comparable.
func (r *Replayer) attrValue(v Value) (any, error) {
	x, err := r.decode(v)
	if err == nil && x != nil && !reflect.TypeOf(x).Comparable() {
		err = fmt.Errorf("value of non-comparable type %T", x)
	}
	return x, err
}

func (r *Replayer) applyEffect(eff *Effect) error {
	switch eff.Kind {
	case EffMake:
		if err := r.declared(eff.Class, eff.Attrs); err != nil {
			return fmt.Errorf("make: %w", err)
		}
		attrs := make(Attrs, len(eff.Attrs))
		for _, av := range eff.Attrs {
			v, err := r.attrValue(av.Val)
			if err != nil {
				return fmt.Errorf("make %s ^%s: %w", eff.Class, av.Attr, err)
			}
			attrs[av.Attr] = v
		}
		el := r.WM.Make(eff.Class, attrs)
		if el.ID != eff.Elem {
			return fmt.Errorf("element id drift: made #%d, journal recorded #%d", el.ID, eff.Elem)
		}
		r.elems[el.ID] = el
	case EffModify:
		el := r.elems[eff.Elem]
		if el == nil {
			return fmt.Errorf("modify of unknown or removed element #%d", eff.Elem)
		}
		if err := r.declared(el.Class, eff.Attrs); err != nil {
			return fmt.Errorf("modify #%d: %w", eff.Elem, err)
		}
		attrs := make(Attrs, len(eff.Attrs))
		for _, av := range eff.Attrs {
			if av.Val.IsNil() {
				attrs[av.Attr] = nil
				continue
			}
			v, err := r.attrValue(av.Val)
			if err != nil {
				return fmt.Errorf("modify #%d ^%s: %w", eff.Elem, av.Attr, err)
			}
			attrs[av.Attr] = v
		}
		r.WM.Modify(el, attrs)
	case EffRemove:
		el := r.elems[eff.Elem]
		if el == nil {
			return fmt.Errorf("remove of unknown or removed element #%d", eff.Elem)
		}
		r.WM.Remove(el)
		delete(r.elems, eff.Elem)
	case EffHalt:
		// Recorded for rendering; replay has no engine to halt.
	case EffDo:
		if r.Host == nil {
			return fmt.Errorf("effect %s with no Host", eff.Name)
		}
		args := make([]any, len(eff.Args))
		for i, a := range eff.Args {
			v, err := r.decode(a)
			if err != nil {
				return fmt.Errorf("effect %s arg %d: %w", eff.Name, i, err)
			}
			args[i] = v
		}
		if _, err := r.Host.Apply(eff.Name, args); err != nil {
			return fmt.Errorf("effect %s: %w", eff.Name, err)
		}
	}
	return nil
}

// declared checks a journaled make or modify's vocabulary against the
// working memory's schema, naming the first class or attribute it does not
// declare.
func (r *Replayer) declared(class string, avs []AttrValue) error {
	l := r.WM.layouts[class]
	if l == nil {
		return fmt.Errorf("class %s is not declared", class)
	}
	for _, av := range avs {
		if _, ok := l.slots[av.Attr]; !ok {
			return fmt.Errorf("class %s declares no attribute ^%s", class, av.Attr)
		}
	}
	return nil
}
