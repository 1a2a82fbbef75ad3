// Package prod implements a forward-chaining production-rule engine in the
// style of OPS5, the substrate the VLSI Design Automation Assistant
// (Kowalski & Thomas, DAC 1983) was written in.
//
// Knowledge is expressed as rules whose left-hand sides are declarative
// patterns over a working memory of class/attribute elements and whose
// right-hand sides are actions that make, modify, and remove elements. A
// working memory is built from a Schema that declares each class's
// attributes, as OPS5's literalize did, and every make, modify, read and
// rule pattern is checked against it. On every cycle the engine selects
// one instantiation from the conflict set (every rule instantiation whose
// patterns match) by OPS5-style conflict resolution — refraction, then
// recency of the matched elements, then specificity, then declaration
// order — and fires it, until no instantiation is left to fire or a rule
// halts the engine.
//
// The matcher is a compiled Rete network (rete.go, alpha.go, beta.go,
// compile.go): each rule's left-hand side is compiled at AddRule time,
// before the engine's first cycle, into interned alpha constant tests
// feeding shared alpha memories, and a path of beta join nodes holding
// partial-match tokens, its first node shared with earlier rules whose
// first pattern compiles alike — negated patterns become negative nodes
// carrying per-token blocker lists. The working
// memory emits a change notification for every Make, Modify, and Remove;
// between firings the network propagates only those changes, one at a
// time, so match work is proportional to change, not to working-memory
// size. The same changes keep the agenda (agenda.go) — the instantiations
// refraction has not spent, sorted by the rest of the order — so selection
// reads its top instead of ranking the conflict set.
//
// One interpreted matcher is kept as an oracle: it recomputes and ranks
// the conflict set from scratch (exhaustive.go), and Engine.CrossCheck
// runs it in lockstep with the network, diffing the selected instantiation
// every cycle. See Engine.Metrics for the per-rule match-cost and network
// observability the network reports.
package prod

import (
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"strings"
)

// Element is a working-memory element: a typed bag of attribute/value
// pairs. Values may be any comparable Go value; pointers into the value
// trace or the RTL design are the common case in internal/core.
//
// Values are stored by slot, as OPS5's literalize compiled them: the
// working memory's schema gives each class a layout (its declared
// attribute names, in declared order), an element holds one vector of its
// class's width, and the compiled network reads attributes by slot index.
// A nil entry is an absent attribute.
type Element struct {
	ID    int
	Class string
	Time  int // recency tag: bumped on creation and each modification

	cls     *layout
	vals    []any // by slot of cls, one per declared attribute
	deleted bool
}

// attrNames returns the names of the element's present attributes, sorted.
func (e *Element) attrNames() []string {
	var names []string
	for s, v := range e.vals {
		if v != nil {
			names = append(names, e.cls.names[s])
		}
	}
	sort.Strings(names)
	return names
}

// Get returns the value of attr, or nil when absent. An attribute the
// element's class does not declare panics, naming the class and the
// attribute.
func (e *Element) Get(attr string) any { return e.vals[e.cls.slot(attr)] }

// Has reports whether attr is present with a non-nil value.
func (e *Element) Has(attr string) bool { return e.Get(attr) != nil }

// Int returns the attribute as an int (zero when absent or mistyped).
func (e *Element) Int(attr string) int {
	v, _ := e.Get(attr).(int)
	return v
}

// Str returns the attribute as a string (empty when absent or mistyped).
func (e *Element) Str(attr string) string {
	v, _ := e.Get(attr).(string)
	return v
}

// Bool returns the attribute as a bool (false when absent or mistyped).
func (e *Element) Bool(attr string) bool {
	v, _ := e.Get(attr).(bool)
	return v
}

// Live reports whether the element is still in working memory.
func (e *Element) Live() bool { return !e.deleted }

func (e *Element) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s #%d", e.Class, e.ID)
	for _, k := range e.attrNames() {
		fmt.Fprintf(&b, " ^%s %v", k, e.Get(k))
	}
	b.WriteString(")")
	return b.String()
}

// Attrs is the attribute/value map used to create or modify elements.
type Attrs map[string]any

// Schema declares a working memory's vocabulary, as OPS5's literalize
// did: class name -> the attribute names its elements carry, in slot
// order. NewWM fixes every class's layout from it; making or modifying an
// element, reading an attribute, or registering a rule that names a class
// or attribute the schema does not declare panics, naming it. A working
// memory keeps the schema's name slices, so a schema must not change once
// a working memory is built from it.
type Schema struct {
	Classes map[string][]string
}

// maxClassAttrs bounds a class's layout: a Modify reports the slots it
// changed as one uint64.
const maxClassAttrs = 64

// layout is one class's slot assignment, fixed by the schema: slot s holds
// the s-th declared attribute.
type layout struct {
	class string
	names []string       // slot -> attribute name
	slots map[string]int // attribute name -> slot
}

// slot returns attr's slot; an undeclared attribute panics, naming the
// class and the attribute.
func (l *layout) slot(attr string) int {
	if s, ok := l.slots[attr]; ok {
		return s
	}
	panic(fmt.Sprintf("prod: class %s declares no attribute ^%s", l.class, attr))
}

// updateSlot is slot for attr, one name of the update attrs. An undeclared
// name panics naming the update's first undeclared name in sorted order,
// whatever the map order.
func (l *layout) updateSlot(attrs Attrs, attr string) int {
	if s, ok := l.slots[attr]; ok {
		return s
	}
	for _, k := range sortedNames(attrs) {
		l.slot(k)
	}
	panic("unreachable")
}

// sortedNames returns the names attrs sets, sorted.
func sortedNames(attrs Attrs) []string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ChangeKind discriminates working-memory change notifications.
type ChangeKind uint8

const (
	ChangeMake   ChangeKind = iota // a new element entered working memory
	ChangeModify                   // an element's attributes changed
	ChangeRemove                   // an element left working memory
)

// Change is one working-memory mutation, delivered to observers registered
// with WM.Observe. For ChangeModify, Changed has bit s set for each slot s
// of the element's class whose value actually changed (set, unset, or
// altered); a Modify that only bumps recency sets none. ChangeMake and
// ChangeRemove set none: every attribute of the element is considered
// touched.
type Change struct {
	Kind    ChangeKind
	El      *Element
	Changed uint64
}

// ChangedAttrs names the attributes a ChangeModify changed, sorted.
func (c Change) ChangedAttrs() []string {
	var names []string
	for m := c.Changed; m != 0; m &= m - 1 {
		names = append(names, c.El.cls.names[bits.TrailingZeros64(m)])
	}
	sort.Strings(names)
	return names
}

// WM is a working memory: the set of live elements, indexed by class,
// over the vocabulary its schema declares. The matchers hash attribute
// values (the Rete network's join indexes, the oracle's candidate index),
// so they must be comparable Go values (ints, strings, bools, pointers);
// storing a non-comparable value (slice, map, function) panics with the
// class and attribute named.
type WM struct {
	byClass   map[string][]*Element
	layouts   map[string]*layout
	observers []func(Change)
	nextID    int
	clock     int
	count     int
	peak      int
}

// NewWM returns an empty working memory over sch's vocabulary. Each
// declared class's layout is fixed here, in declared order; a class
// declaring more than 64 attributes panics.
func NewWM(sch *Schema) *WM {
	w := &WM{
		byClass: make(map[string][]*Element, len(sch.Classes)),
		layouts: make(map[string]*layout, len(sch.Classes)),
	}
	//daalint:allow detmap each class builds its own layout
	for class, names := range sch.Classes {
		if len(names) > maxClassAttrs {
			panic(fmt.Sprintf("prod: class %s declares %d attributes, more than the %d a layout holds",
				class, len(names), maxClassAttrs))
		}
		l := &layout{class: class, names: names, slots: make(map[string]int, len(names))}
		for s, attr := range names {
			l.slots[attr] = s
		}
		w.layouts[class] = l
	}
	return w
}

// layoutOf returns class's layout; an undeclared class panics, naming it.
func (w *WM) layoutOf(class string) *layout {
	if l := w.layouts[class]; l != nil {
		return l
	}
	panic(fmt.Sprintf("prod: class %s is not declared", class))
}

// Observe registers f to receive every subsequent working-memory change.
// The incremental matcher (Engine) is the primary observer; tracing and
// metrics layers may register too. Observers must not mutate the WM.
func (w *WM) Observe(f func(Change)) { w.observers = append(w.observers, f) }

func (w *WM) notify(c Change) {
	for _, f := range w.observers {
		f(c)
	}
}

// checkAttrValue rejects non-comparable attribute values up front: they
// would otherwise surface later as an opaque "hash of unhashable type"
// runtime panic inside a matcher's value index or the old == v comparison
// in Modify. attrs is the whole update, so that with several bad values
// the panic names the first in sorted order, whatever the map order.
func checkAttrValue(class string, attrs Attrs, v any) {
	if v == nil || reflect.TypeOf(v).Comparable() {
		return
	}
	for _, k := range sortedNames(attrs) {
		if v := attrs[k]; v != nil {
			if t := reflect.TypeOf(v); !t.Comparable() {
				panic(fmt.Sprintf("prod: %s ^%s: attribute value of non-comparable type %s (working-memory values must be comparable: ints, strings, bools, pointers)", class, k, t))
			}
		}
	}
}

// Make creates a new element of the given class. Its value vector has
// the class's declared width, so a later Modify writes in place.
func (w *WM) Make(class string, attrs Attrs) *Element {
	l := w.layoutOf(class)
	w.clock++
	e := &Element{ID: w.nextID, Class: class, Time: w.clock, cls: l, vals: make([]any, len(l.names))}
	w.nextID++
	//daalint:allow detmap each attribute writes its own slot
	for k, v := range attrs {
		s := l.updateSlot(attrs, k)
		checkAttrValue(class, attrs, v)
		e.vals[s] = v
	}
	w.byClass[class] = append(w.byClass[class], e)
	w.count++
	if w.count > w.peak {
		w.peak = w.count
	}
	w.notify(Change{Kind: ChangeMake, El: e})
	return e
}

// Modify updates attributes of a live element and bumps its recency tag.
// Setting an attribute to nil removes it.
func (w *WM) Modify(e *Element, attrs Attrs) {
	if e.deleted {
		panic(fmt.Sprintf("prod: modify of removed element %s", e))
	}
	w.clock++
	e.Time = w.clock
	var changed uint64
	//daalint:allow detmap each attribute sets its own slot and bit
	for k, v := range attrs {
		s := e.cls.updateSlot(attrs, k)
		checkAttrValue(e.Class, attrs, v)
		if e.vals[s] == v {
			continue
		}
		e.vals[s] = v
		changed |= 1 << s
	}
	w.notify(Change{Kind: ChangeModify, El: e, Changed: changed})
}

// Remove deletes an element from working memory.
func (w *WM) Remove(e *Element) {
	if e.deleted {
		return
	}
	e.deleted = true
	w.count--
	// A class list is in creation order, which is ascending ID.
	class := w.byClass[e.Class]
	i := sort.Search(len(class), func(i int) bool { return class[i].ID >= e.ID })
	w.byClass[e.Class] = append(class[:i], class[i+1:]...)
	w.notify(Change{Kind: ChangeRemove, El: e})
}

// Class returns the live elements of a class in creation order. The returned
// slice is shared; callers must not mutate it.
func (w *WM) Class(class string) []*Element { return w.byClass[class] }

// First returns the first live element of a class, or nil.
func (w *WM) First(class string) *Element {
	if es := w.byClass[class]; len(es) > 0 {
		return es[0]
	}
	return nil
}

// Size reports the number of live elements.
func (w *WM) Size() int { return w.count }

// Peak reports the maximum number of simultaneously live elements.
func (w *WM) Peak() int { return w.peak }

// Dump renders the working memory sorted by element ID, for debugging.
func (w *WM) Dump() string {
	var all []*Element
	for _, es := range w.byClass {
		all = append(all, es...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	var b strings.Builder
	for _, e := range all {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}
