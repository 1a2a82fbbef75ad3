// Package prod implements a forward-chaining production-rule engine in the
// style of OPS5, the substrate the VLSI Design Automation Assistant
// (Kowalski & Thomas, DAC 1983) was written in.
//
// Knowledge is expressed as rules whose left-hand sides are declarative
// patterns over a working memory of class/attribute elements and whose
// right-hand sides are actions that make, modify, and remove elements. The
// engine repeatedly computes the conflict set (every rule instantiation
// whose patterns match), selects one instantiation by OPS5-style conflict
// resolution — refraction, then recency of the matched elements, then
// specificity, then declaration order — and fires it, until the conflict
// set is empty or a rule halts the engine.
//
// The default matcher is a compiled Rete network (rete.go, alpha.go,
// beta.go, compile.go): each rule's left-hand side is compiled at AddRule
// time into interned alpha constant tests feeding shared alpha memories,
// and a chain of beta join nodes holding partial-match tokens — negated
// patterns become negative nodes carrying per-token blocker lists. The
// working memory emits a change notification for every Make, Modify, and
// Remove; between firings the network propagates only those deltas, so
// match work is proportional to change, not to working-memory size.
//
// One interpreted matcher is kept alongside it: Engine.Exhaustive
// recomputes the conflict set from scratch each cycle (exhaustive.go).
// Conflict-resolution semantics — refraction, recency, specificity,
// declaration order — are bit-for-bit identical across the two, and
// Engine.CrossCheck runs them in lockstep, diffing the selected
// instantiation every cycle. See Engine.Metrics for the per-rule
// match-cost and network observability this enables.
package prod

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Element is a working-memory element: a typed bag of attribute/value
// pairs. Values may be any comparable Go value; pointers into the value
// trace or the RTL design are the common case in internal/core.
//
// Attributes are stored as a small association slice: elements carry a
// handful of attributes and the matcher probes them constantly, where a
// linear scan beats map hashing.
type Element struct {
	ID    int
	Class string
	Time  int // recency tag: bumped on creation and each modification

	attrs   []attrSlot
	deleted bool
}

type attrSlot struct {
	key string
	val any
}

// lookup returns the attribute value and presence.
func (e *Element) lookup(attr string) (any, bool) {
	for i := range e.attrs {
		if e.attrs[i].key == attr {
			return e.attrs[i].val, true
		}
	}
	return nil, false
}

func (e *Element) set(attr string, v any) {
	for i := range e.attrs {
		if e.attrs[i].key == attr {
			e.attrs[i].val = v
			return
		}
	}
	e.attrs = append(e.attrs, attrSlot{attr, v})
}

func (e *Element) unset(attr string) {
	for i := range e.attrs {
		if e.attrs[i].key == attr {
			e.attrs = append(e.attrs[:i], e.attrs[i+1:]...)
			return
		}
	}
}

// Get returns the value of attr, or nil when absent.
func (e *Element) Get(attr string) any {
	v, _ := e.lookup(attr)
	return v
}

// Has reports whether attr is present with a non-nil value.
func (e *Element) Has(attr string) bool {
	v, ok := e.lookup(attr)
	return ok && v != nil
}

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
	keys := make([]string, 0, len(e.attrs))
	for _, s := range e.attrs {
		keys = append(keys, s.key)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "(%s #%d", e.Class, e.ID)
	for _, k := range keys {
		v, _ := e.lookup(k)
		fmt.Fprintf(&b, " ^%s %v", k, v)
	}
	b.WriteString(")")
	return b.String()
}

// Attrs is the attribute/value map used to create or modify elements.
type Attrs map[string]any

// ChangeKind discriminates working-memory change notifications.
type ChangeKind uint8

const (
	ChangeMake   ChangeKind = iota // a new element entered working memory
	ChangeModify                   // an element's attributes changed
	ChangeRemove                   // an element left working memory
)

// Change is one working-memory mutation, delivered to observers registered
// with WM.Observe. For ChangeModify, Attrs names the attributes whose
// values actually changed (set, unset, or altered); a Modify that only
// bumps recency carries no attrs. For ChangeMake and ChangeRemove, Attrs
// is nil: every attribute of the element is considered touched.
type Change struct {
	Kind  ChangeKind
	El    *Element
	Attrs []string
}

// WM is a working memory: the set of live elements, indexed by class and —
// for fast joins — by every (class, attribute, value) triple. Attribute
// values must therefore be comparable Go values (ints, strings, bools,
// pointers); storing a non-comparable value (slice, map, function) panics
// with the class and attribute named.
type WM struct {
	byClass   map[string][]*Element
	byAttr    map[attrKey][]*Element
	observers []func(Change)
	nextID    int
	clock     int
	count     int
	peak      int
}

type attrKey struct {
	class, attr string
	val         any
}

// NewWM returns an empty working memory.
func NewWM() *WM {
	return &WM{byClass: map[string][]*Element{}, byAttr: map[attrKey][]*Element{}}
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
// runtime panic inside the (class, attr, value) index or the old == v
// comparison in Modify.
func checkAttrValue(class, attr string, v any) {
	if v == nil {
		return
	}
	if t := reflect.TypeOf(v); !t.Comparable() {
		panic(fmt.Sprintf("prod: %s ^%s: attribute value of non-comparable type %s (working-memory values must be comparable: ints, strings, bools, pointers)", class, attr, t))
	}
}

// sortedKeys returns the attribute names in sorted order so attribute
// slots, index entries, and change notifications are independent of Go's
// randomized map iteration.
func (a Attrs) sortedKeys() []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Make creates a new element of the given class.
func (w *WM) Make(class string, attrs Attrs) *Element {
	w.clock++
	e := &Element{ID: w.nextID, Class: class, Time: w.clock}
	w.nextID++
	for _, k := range attrs.sortedKeys() {
		if v := attrs[k]; v != nil {
			checkAttrValue(class, k, v)
			e.set(k, v)
			w.index(e, k, v)
		}
	}
	w.byClass[class] = append(w.byClass[class], e)
	w.count++
	if w.count > w.peak {
		w.peak = w.count
	}
	w.notify(Change{Kind: ChangeMake, El: e})
	return e
}

func (w *WM) index(e *Element, attr string, val any) {
	k := attrKey{e.Class, attr, val}
	w.byAttr[k] = append(w.byAttr[k], e)
}

func (w *WM) unindex(e *Element, attr string, val any) {
	k := attrKey{e.Class, attr, val}
	list := w.byAttr[k]
	for i, x := range list {
		if x == e {
			w.byAttr[k] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// lookup returns the live elements of class whose attr equals val.
func (w *WM) lookup(class, attr string, val any) []*Element {
	return w.byAttr[attrKey{class, attr, val}]
}

// Modify updates attributes of a live element and bumps its recency tag.
// Setting an attribute to nil removes it.
func (w *WM) Modify(e *Element, attrs Attrs) {
	if e.deleted {
		panic(fmt.Sprintf("prod: modify of removed element %s", e))
	}
	w.clock++
	e.Time = w.clock
	var changed []string
	for _, k := range attrs.sortedKeys() {
		v := attrs[k]
		checkAttrValue(e.Class, k, v)
		old, had := e.lookup(k)
		if had {
			if old == v {
				continue
			}
			w.unindex(e, k, old)
		}
		if v == nil {
			if !had {
				continue
			}
			e.unset(k)
		} else {
			e.set(k, v)
			w.index(e, k, v)
		}
		changed = append(changed, k)
	}
	w.notify(Change{Kind: ChangeModify, El: e, Attrs: changed})
}

// Remove deletes an element from working memory.
func (w *WM) Remove(e *Element) {
	if e.deleted {
		return
	}
	e.deleted = true
	w.count--
	class := w.byClass[e.Class]
	for i, x := range class {
		if x == e {
			w.byClass[e.Class] = append(class[:i], class[i+1:]...)
			break
		}
	}
	for _, s := range e.attrs {
		w.unindex(e, s.key, s.val)
	}
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
