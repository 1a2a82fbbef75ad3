// Package prod implements a forward-chaining production-rule engine in the
// style of OPS5, the substrate the VLSI Design Automation Assistant
// (Kowalski & Thomas, DAC 1983) was written in.
//
// Knowledge is expressed as rules whose left-hand sides are declarative
// patterns over a working memory of class/attribute elements and whose
// right-hand sides are actions that make, modify, and remove elements. On
// every cycle the engine selects one instantiation from the conflict set
// (every rule instantiation whose patterns match) by OPS5-style conflict
// resolution — refraction, then recency of the matched elements, then
// specificity, then declaration order — and fires it, until no
// instantiation is left to fire or a rule halts the engine.
//
// The matcher is a compiled Rete network (rete.go, alpha.go, beta.go,
// compile.go): each rule's left-hand side is compiled at AddRule time into
// interned alpha constant tests feeding shared alpha memories, and a path
// of beta join nodes holding partial-match tokens, its first node shared
// with earlier rules whose first pattern compiles alike — negated patterns
// become negative nodes carrying per-token blocker lists. The working
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
// working memory gives each class a layout (its attribute names in
// first-use order), an element holds one vector of its class's width, and
// the compiled network reads attributes by slot index. A nil entry is an
// absent attribute, and so is a slot the layout gained after the vector
// was made.
type Element struct {
	ID    int
	Class string
	Time  int // recency tag: bumped on creation and each modification

	cls     *layout
	vals    []any // by slot of cls
	deleted bool
}

// at returns the value in slot s, nil when absent.
func (e *Element) at(s int) any {
	if s < len(e.vals) {
		return e.vals[s]
	}
	return nil
}

// put stores v in slot s, widening the vector to the layout's current
// width when the slot was added after the element was made.
func (e *Element) put(s int, v any) {
	if s >= len(e.vals) {
		e.vals = append(e.vals, make([]any, len(e.cls.names)-len(e.vals))...)
	}
	e.vals[s] = v
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

// Get returns the value of attr, or nil when absent.
func (e *Element) Get(attr string) any {
	if s, ok := e.cls.slots[attr]; ok {
		return e.at(s)
	}
	return nil
}

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

// maxClassAttrs bounds a class's layout: a Modify reports the slots it
// changed as one uint64.
const maxClassAttrs = 64

// layout is one class's slot assignment: every attribute name the working
// memory has seen for the class, in first-use order. AddRule interns the
// names its patterns test before the first element is made, and Make and
// Modify intern new names in sorted order, so numbering never depends on
// map iteration. Slots are only ever added, so a slot compiled into the
// network stays valid for the life of the working memory.
type layout struct {
	class string
	names []string       // slot -> attribute name
	slots map[string]int // attribute name -> slot
}

// intern returns attr's slot, adding one on first use. A class has at most
// maxClassAttrs attributes.
func (l *layout) intern(attr string) int {
	if s, ok := l.slots[attr]; ok {
		return s
	}
	if len(l.names) == maxClassAttrs {
		panic(fmt.Sprintf("prod: class %s: interning ^%s would give it %d attributes, more than the %d a layout holds",
			l.class, attr, maxClassAttrs+1, maxClassAttrs))
	}
	s := len(l.names)
	l.names = append(l.names, attr)
	l.slots[attr] = s
	return s
}

// internNew interns the names attrs sets (non-nil values) that the layout
// lacks, in sorted order.
func (l *layout) internNew(attrs Attrs) {
	var fresh []string
	//daalint:allow detmap the names are sorted before they are interned
	for k, v := range attrs {
		if _, ok := l.slots[k]; !ok && v != nil {
			fresh = append(fresh, k)
		}
	}
	sort.Strings(fresh)
	for _, k := range fresh {
		l.intern(k)
	}
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

// WM is a working memory: the set of live elements, indexed by class. The
// matchers hash attribute values (the Rete network's join indexes, the
// oracle's candidate index), so they must be comparable Go values (ints,
// strings, bools, pointers); storing a non-comparable value (slice, map,
// function) panics with the class and attribute named.
type WM struct {
	byClass   map[string][]*Element
	layouts   map[string]*layout
	observers []func(Change)
	nextID    int
	clock     int
	count     int
	peak      int
}

// NewWM returns an empty working memory.
func NewWM() *WM {
	return &WM{byClass: map[string][]*Element{}, layouts: map[string]*layout{}}
}

// layoutOf returns class's layout, creating an empty one on first use.
func (w *WM) layoutOf(class string) *layout {
	l := w.layouts[class]
	if l == nil {
		l = &layout{class: class, slots: map[string]int{}}
		w.layouts[class] = l
	}
	return l
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
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v := attrs[k]; v != nil {
			if t := reflect.TypeOf(v); !t.Comparable() {
				panic(fmt.Sprintf("prod: %s ^%s: attribute value of non-comparable type %s (working-memory values must be comparable: ints, strings, bools, pointers)", class, k, t))
			}
		}
	}
}

// Make creates a new element of the given class.
func (w *WM) Make(class string, attrs Attrs) *Element {
	w.clock++
	e := &Element{ID: w.nextID, Class: class, Time: w.clock, cls: w.layoutOf(class)}
	w.nextID++
	e.fill(attrs)
	w.byClass[class] = append(w.byClass[class], e)
	w.count++
	if w.count > w.peak {
		w.peak = w.count
	}
	w.notify(Change{Kind: ChangeMake, El: e})
	return e
}

// fill stores attrs in a new element's vector, made at its layout's full
// width so a later Modify of any known attribute writes in place.
func (e *Element) fill(attrs Attrs) {
	l := e.cls
	e.vals = make([]any, len(l.names))
	//daalint:allow detmap each attribute writes its own slot
	for k, v := range attrs {
		if v == nil {
			continue
		}
		s, ok := l.slots[k]
		if !ok {
			// A name new to the class: intern every new name at once, in
			// sorted order, and fill a vector of the new width.
			l.internNew(attrs)
			e.fill(attrs)
			return
		}
		checkAttrValue(l.class, attrs, v)
		e.vals[s] = v
	}
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
		s, ok := e.cls.slots[k]
		if !ok {
			if v == nil {
				continue // unsetting an attribute the class never had
			}
			e.cls.internNew(attrs)
			s = e.cls.slots[k]
		}
		checkAttrValue(e.Class, attrs, v)
		if e.at(s) == v {
			continue
		}
		e.put(s, v)
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
