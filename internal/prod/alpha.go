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
// Membership is versioned within a batch: applyBatch assigns each
// add/remove event a sequence number, and entries record the interval
// [addSeq, delSeq) during which they are members. Beta join nodes filter
// entries by the sequence number of the event they are processing, so a
// join at event s sees exactly the memberships that held after event s —
// regardless of how many later events the same batch carries. Attribute
// values are NOT versioned: WM mutation has already completed when the
// batch is applied, so all matchers (exhaustive included) read final
// values; only membership needs ordering, to avoid duplicate or missed
// token derivations. Memories compact back to plain sets after each batch.

// memEntry is one element's membership interval within an alpha memory.
type memEntry struct {
	el     *Element
	addSeq int // event that added it; 0 = present before this batch
	delSeq int // event that removed it; 0 = still a member
}

// missingKey files entries whose element lacks the indexed attribute. The
// type is private, so it can never compare equal to a bound slot value and
// those entries are invisible to every hashed probe — exactly the join
// semantics (a join test requires the attribute present).
type missingKey struct{}

// memIndex is a hash index over a memory's entries by one attribute's
// value, maintained for beta nodes whose first join tests equality on that
// attribute. Buckets hold entry positions; probes still filter by
// visibility. Keys track the FINAL attribute values of the batch (apply
// reindexes on every Modify before classifying it), matching the batch
// semantics that joins read final values and only membership is versioned.
type memIndex struct {
	attr   string
	keys   []any         // parallel to entries: the key each is filed under
	bucket map[any][]int // key -> entry positions
}

func indexKey(el *Element, attr string) any {
	if v, ok := el.lookup(attr); ok {
		return v
	}
	return missingKey{}
}

func (ix *memIndex) file(i int, k any) {
	ix.keys = append(ix.keys, k)
	ix.bucket[k] = append(ix.bucket[k], i)
}

// drop unfiles position i from its bucket.
func (ix *memIndex) drop(i int) {
	b := ix.bucket[ix.keys[i]]
	for j, e := range b {
		if e == i {
			last := len(b) - 1
			b[j] = b[last]
			ix.bucket[ix.keys[i]] = b[:last]
			return
		}
	}
}

// refile moves entry i to the bucket for its current key.
func (ix *memIndex) refile(i int, k any) {
	ix.drop(i)
	ix.keys[i] = k
	ix.bucket[k] = append(ix.bucket[k], i)
}

// renumber records that the entry filed at position from now lives at
// position to (compaction swap-remove).
func (ix *memIndex) renumber(from, to int) {
	k := ix.keys[from]
	b := ix.bucket[k]
	for j, e := range b {
		if e == from {
			b[j] = to
			break
		}
	}
	ix.keys[to] = k
}

// visible reports membership as of event s.
func (en *memEntry) visible(s int) bool {
	return en.addSeq <= s && (en.delSeq == 0 || en.delSeq > s)
}

// alphaTest is one interned constant test with a per-element-event result
// cache: gen is bumped once per (element, batch event), so a test shared
// by many memories evaluates once per element change.
type alphaTest struct {
	id   int
	fn   func(*Element) bool
	gen  uint64
	pass bool
}

// alphaMem is one shared alpha memory: the elements of a class passing a
// set of constant tests.
type alphaMem struct {
	id    int
	class string
	tests []*alphaTest

	entries []memEntry
	idx     map[*Element]int // element -> live entry index
	dirty   bool             // has versioned entries needing compaction
	indexes []*memIndex      // value indexes requested by hashed join nodes

	// testAttrs is the set of attributes the memory's own tests read; a
	// Modify changing none of them cannot flip membership.
	testAttrs map[string]bool

	patterns int // patterns served (sharing statistic)
}

// eval applies the memory's tests to an element, short-circuiting on the
// first failure. gen must have been bumped once for this element event.
func (mem *alphaMem) eval(el *Element, net *alphaNet) bool {
	for _, t := range mem.tests {
		if t.gen != net.gen {
			t.gen = net.gen
			t.pass = t.fn(el)
			net.batchEvals++
		}
		if !t.pass {
			return false
		}
	}
	return true
}

func (mem *alphaMem) has(el *Element) bool {
	_, ok := mem.idx[el]
	return ok
}

// add appends a membership entry. seq 0 marks seeding-time entries that
// need no compaction.
func (mem *alphaMem) add(el *Element, seq int) {
	i := len(mem.entries)
	mem.idx[el] = i
	mem.entries = append(mem.entries, memEntry{el: el, addSeq: seq})
	for _, ix := range mem.indexes {
		ix.file(i, indexKey(el, ix.attr))
	}
	if seq != 0 {
		mem.dirty = true
	}
}

// del closes the element's membership interval at seq.
func (mem *alphaMem) del(el *Element, seq int) {
	i := mem.idx[el]
	delete(mem.idx, el)
	mem.entries[i].delSeq = seq
	mem.dirty = true
}

// compact drops closed intervals and zeroes sequence numbers once a batch
// is fully propagated. Closed entries are swap-removed — cost proportional
// to the batch's churn, not the memory's size — with the value indexes
// renumbered in place. Entry order is therefore not insertion order, which
// is fine: conflict resolution is a total order, so derivation order never
// shows in selection.
func (mem *alphaMem) compact() {
	if !mem.dirty {
		return
	}
	for i := 0; i < len(mem.entries); {
		en := &mem.entries[i]
		if en.delSeq == 0 {
			en.addSeq = 0
			i++
			continue
		}
		for _, ix := range mem.indexes {
			ix.drop(i)
		}
		last := len(mem.entries) - 1
		if i != last {
			mem.entries[i] = mem.entries[last]
			for _, ix := range mem.indexes {
				ix.renumber(last, i)
			}
			if mem.entries[i].delSeq == 0 {
				mem.idx[mem.entries[i].el] = i
			}
			// The moved entry may itself be closed; re-examine position i.
		}
		mem.entries = mem.entries[:last]
		for _, ix := range mem.indexes {
			ix.keys = ix.keys[:last]
		}
	}
	mem.dirty = false
}

// reset empties the memory (resync after the exhaustive matcher drove
// the engine).
func (mem *alphaMem) reset() {
	mem.entries = mem.entries[:0]
	clear(mem.idx)
	mem.dirty = false
	for _, ix := range mem.indexes {
		ix.keys = ix.keys[:0]
		clear(ix.bucket)
	}
}

// index returns the value index over attr, nil if none was requested.
func (mem *alphaMem) index(attr string) *memIndex {
	for _, ix := range mem.indexes {
		if ix.attr == attr {
			return ix
		}
	}
	return nil
}

// ensureIndex registers a value index over attr, building it from the
// current entries (the memory may predate the requesting rule).
func (mem *alphaMem) ensureIndex(attr string) *memIndex {
	if ix := mem.index(attr); ix != nil {
		return ix
	}
	ix := &memIndex{attr: attr, bucket: map[any][]int{}}
	for i := range mem.entries {
		ix.file(i, indexKey(mem.entries[i].el, attr))
	}
	mem.indexes = append(mem.indexes, ix)
	return ix
}

// reindexEl refiles a live entry under its element's current attribute
// values. apply calls it for every Modify against a member element, before
// classifying the change, so hashed probes — which read final values like
// every other join path — never consult a stale bucket.
func (mem *alphaMem) reindexEl(el *Element) {
	if len(mem.indexes) == 0 {
		return
	}
	i, ok := mem.idx[el]
	if !ok {
		return
	}
	for _, ix := range mem.indexes {
		if k := indexKey(el, ix.attr); k != ix.keys[i] {
			ix.refile(i, k)
		}
	}
}

// alphaNet owns the interned tests and shared memories.
type alphaNet struct {
	tests    map[alphaKey]*alphaTest
	nTests   int
	memBySig map[string]*alphaMem
	memList  []*alphaMem // registration order (deterministic seeding)
	byClass  map[string][]*alphaMem

	gen        uint64 // per-(element, event) generation for the test cache
	batchEvals int    // constant-test evaluations this batch
}

func newAlphaNet() *alphaNet {
	return &alphaNet{
		tests:    map[alphaKey]*alphaTest{},
		memBySig: map[string]*alphaMem{},
		byClass:  map[string][]*alphaMem{},
	}
}

// intern returns the shared test node for a spec, creating it on first
// use. Predicate tests are always fresh: closure identity is not
// inspectable, so deduplicating them could merge predicates that merely
// share code.
func (net *alphaNet) intern(s alphaSpec) *alphaTest {
	if s.key.kind == aPred {
		t := &alphaTest{id: net.nTests, fn: s.compile()}
		net.nTests++
		return t
	}
	if t, ok := net.tests[s.key]; ok {
		return t
	}
	t := &alphaTest{id: net.nTests, fn: s.compile()}
	net.nTests++
	net.tests[s.key] = t
	return t
}

// memFor returns the shared memory for (class, tests), creating and — if
// the engine is already seeded — populating it from live working memory.
func (net *alphaNet) memFor(class string, specs []alphaSpec, wm *WM, seeded bool) *alphaMem {
	tests := make([]*alphaTest, len(specs))
	ids := make([]int, len(specs))
	for i, s := range specs {
		tests[i] = net.intern(s)
		ids[i] = tests[i].id
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
	mem := &alphaMem{
		id:        len(net.memList),
		class:     class,
		tests:     tests,
		idx:       map[*Element]int{},
		testAttrs: map[string]bool{},
	}
	for _, s := range specs {
		mem.testAttrs[s.key.attr] = true
		if s.key.kind == aVarEq {
			mem.testAttrs[s.key.attr2] = true
		}
	}
	net.memBySig[sig.String()] = mem
	net.memList = append(net.memList, mem)
	net.byClass[class] = append(net.byClass[class], mem)
	if seeded {
		for _, el := range wm.byClass[class] {
			net.gen++
			if mem.eval(el, net) {
				mem.add(el, 0)
			}
		}
	}
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
					mem.add(el, 0)
				}
			}
		}
	}
}
