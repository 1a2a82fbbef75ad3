package prod

import (
	"sort"
	"strconv"
	"strings"
)

// The alpha network: one interned constant-test node per distinct
// (kind, attr, value) across every rule in the engine, and one alpha
// memory per distinct test-set signature. Memories are shared — two
// patterns in different rules with the same class and constant tests feed
// from the same memory — so each WM change is classified once, not once
// per rule.
//
// A memory is a plain set of the elements passing its tests. The network
// applies a batch one change at a time (rete.go): each change updates the
// memories of its class and right-activates their nodes before the next
// change is taken, so every join sees exactly the memberships that hold
// after the changes before it. Attribute values are not replayed: WM
// mutation has completed when the batch is applied, so alpha tests and
// joins read final values, and the value indexes are refiled under final
// values before the batch's first change.

// missingKey files members whose element lacks the indexed attribute. The
// type is private, so it can never compare equal to a bound slot value and
// those members are invisible to every hashed probe — exactly the join
// semantics (a join test requires the attribute present).
type missingKey struct{}

// memIndex is a hash index over a memory's members by one attribute's
// value, maintained for beta nodes whose first join tests equality on that
// attribute.
type memIndex struct {
	attr   int   // the attribute's slot in the memory's class
	keys   []any // parallel to the memory's els: the key each is filed under
	bucket map[any][]*Element
}

func indexKey(el *Element, attr int) any {
	if v := el.vals[attr]; v != nil {
		return v
	}
	return missingKey{}
}

// file indexes el as the memory's newest member.
func (ix *memIndex) file(el *Element) {
	k := indexKey(el, ix.attr)
	ix.keys = append(ix.keys, k)
	ix.bucket[k] = append(ix.bucket[k], el)
}

// unfile removes el from the bucket for k.
func (ix *memIndex) unfile(k any, el *Element) {
	b := ix.bucket[k]
	for j, x := range b {
		if x == el {
			last := len(b) - 1
			b[j] = b[last]
			ix.bucket[k] = b[:last]
			return
		}
	}
}

// alphaTest is one interned constant test with a per-element-change result
// cache: gen is bumped once per element change, so a test shared by many
// memories evaluates once per element change. fn receives the values the
// test reads (nil when absent); each memory passes its class's slots.
type alphaTest struct {
	id   int
	fn   func(v, w any) bool
	gen  uint64
	pass bool
}

// memTest is one of a memory's tests with the slots it reads in the
// memory's class.
type memTest struct {
	t           *alphaTest
	slot, slot2 int
}

// alphaMem is one shared alpha memory: the elements of a class passing a
// set of constant tests, and the beta nodes they feed.
type alphaMem struct {
	tests []memTest

	els     []*Element       // members, in no particular order
	pos     map[*Element]int // member -> position in els
	indexes []*memIndex      // value indexes requested by hashed join nodes

	// testMask has a bit for each slot the memory's own tests read; a
	// Modify changing none of them cannot flip membership.
	testMask uint64

	// succs lists the nodes fed by the memory, grouped by owner rule in
	// registration order, each rule's nodes deepest first. A shared node
	// appears once, in its owner's entry.
	succs []memSucc
}

// memSucc is the nodes one rule owns on a memory.
type memSucc struct {
	rr    *reteRule
	nodes []*betaNode
}

// eval applies the memory's tests to an element, short-circuiting on the
// first failure. gen must have been bumped once for this element change.
func (mem *alphaMem) eval(el *Element, net *alphaNet) bool {
	for _, mt := range mem.tests {
		t := mt.t
		if t.gen != net.gen {
			t.gen = net.gen
			t.pass = t.fn(el.vals[mt.slot], el.vals[mt.slot2])
			net.batchEvals++
		}
		if !t.pass {
			return false
		}
	}
	return true
}

func (mem *alphaMem) has(el *Element) bool {
	_, ok := mem.pos[el]
	return ok
}

func (mem *alphaMem) add(el *Element) {
	mem.pos[el] = len(mem.els)
	mem.els = append(mem.els, el)
	for _, ix := range mem.indexes {
		ix.file(el)
	}
}

// del swap-removes a member. Member order is not insertion order, which is
// fine: conflict resolution is a total order, so derivation order never
// shows in selection.
func (mem *alphaMem) del(el *Element) {
	i := mem.pos[el]
	delete(mem.pos, el)
	last := len(mem.els) - 1
	if i != last {
		mem.els[i] = mem.els[last]
		mem.pos[mem.els[i]] = i
	}
	mem.els[last] = nil
	mem.els = mem.els[:last]
	for _, ix := range mem.indexes {
		ix.unfile(ix.keys[i], el)
		ix.keys[i] = ix.keys[last]
		ix.keys = ix.keys[:last]
	}
}

// ensureIndex returns the value index over the attribute in slot attr,
// adding it on first request. Rules register before the first cycle, so
// the memory has no members yet to file.
func (mem *alphaMem) ensureIndex(attr int) *memIndex {
	for _, ix := range mem.indexes {
		if ix.attr == attr {
			return ix
		}
	}
	ix := &memIndex{attr: attr, bucket: map[any][]*Element{}}
	mem.indexes = append(mem.indexes, ix)
	return ix
}

// reindexEl refiles a member under its element's current attribute values.
// rete.apply calls it for every Modify of a batch before taking the first
// change, so hashed probes — which read final values like every other join
// path — never consult a stale bucket.
func (mem *alphaMem) reindexEl(el *Element) {
	if len(mem.indexes) == 0 {
		return
	}
	i, ok := mem.pos[el]
	if !ok {
		return
	}
	for _, ix := range mem.indexes {
		if k := indexKey(el, ix.attr); k != ix.keys[i] {
			ix.unfile(ix.keys[i], el)
			ix.keys[i] = k
			ix.bucket[k] = append(ix.bucket[k], el)
		}
	}
}

// alphaNet owns the interned tests and shared memories.
type alphaNet struct {
	tests    map[alphaKey]*alphaTest
	nTests   int
	memBySig map[string]*alphaMem
	byClass  map[string][]*alphaMem // registration order within a class

	gen        uint64 // per-element-change generation for the test cache
	batchEvals int    // constant-test evaluations not yet folded into the metrics
}

func newAlphaNet() *alphaNet {
	return &alphaNet{
		tests:    map[alphaKey]*alphaTest{},
		memBySig: map[string]*alphaMem{},
		byClass:  map[string][]*alphaMem{},
	}
}

// intern returns the shared test node for a spec, creating it on first
// use.
func (net *alphaNet) intern(s alphaSpec) *alphaTest {
	if t, ok := net.tests[s.key]; ok {
		return t
	}
	t := &alphaTest{id: net.nTests, fn: s.compile()}
	net.nTests++
	net.tests[s.key] = t
	return t
}

// memFor returns the shared memory for (class, tests), creating it on
// first use. The network's first full match fills it (seed).
func (net *alphaNet) memFor(class string, specs []alphaSpec) *alphaMem {
	tests := make([]memTest, len(specs))
	ids := make([]int, len(specs))
	for i, s := range specs {
		tests[i] = memTest{t: net.intern(s), slot: s.slot, slot2: s.slot2}
		ids[i] = tests[i].t.id
	}
	sort.Ints(ids)
	var sig strings.Builder
	sig.WriteString(class)
	for _, id := range ids {
		sig.WriteByte('|')
		sig.WriteString(strconv.Itoa(id))
	}
	if mem, ok := net.memBySig[sig.String()]; ok {
		return mem
	}
	mem := &alphaMem{tests: tests, pos: map[*Element]int{}}
	for _, s := range specs {
		mem.testMask |= 1<<s.slot | 1<<s.slot2
	}
	net.memBySig[sig.String()] = mem
	net.byClass[class] = append(net.byClass[class], mem)
	return mem
}

// seed ingests the whole working memory into every memory, element-major
// within each class so the test cache shares evaluations across the
// class's memories.
func (net *alphaNet) seed(wm *WM) {
	// Each memory holds a single class, so its internal order is always
	// wm.byClass order regardless of which class seeds first.
	//daalint:allow detmap per-memory order fixed by wm.byClass
	for class, mems := range net.byClass {
		for _, el := range wm.byClass[class] {
			net.gen++
			for _, mem := range mems {
				if mem.eval(el, net) {
					mem.add(el)
				}
			}
		}
	}
}
