package prod

// The beta network: one join node per pattern, each fed by a (shared)
// alpha memory, linked parent to child into a forest. Nodes store tokens —
// partial matches covering patterns 0..level — so a WM change reprocesses
// only the join work downstream of the memories it touched instead of
// re-enumerating whole rules.
//
// Negated patterns become negative nodes: their tokens carry the same
// bindings as their left parent plus the identity list of elements that
// currently block them (the counted negative-join-results of Doorenbos's
// thesis, with identities kept so retraction needs no re-testing against
// post-hoc attribute values). A blocked token keeps its place in the
// path; when its last blocker disappears it resumes propagation.
//
// A rule's nodes form a path from a first node to its private production
// node. Rules whose first patterns compile alike share the first node
// (rete.addRule), so a node's children may belong to other rules. Every
// node has one owner rule, which allocates, recycles and counts its tokens
// and binding vectors; propagation into a child and deletion cascades
// cross into the child's rule, and a production node's matches are its
// own rule's. The agenda is shared: every rule queues its instantiations
// on the engine's one agenda (agenda.go).

// betaNode is one join (or negative-join) node.
type betaNode struct {
	rr    *reteRule // owner
	mem   *alphaMem
	neg   bool
	joins []joinSpec
	projs []projSpec
	mask  uint64 // the element slots its joins/projs read

	// Hashed-join acceleration. When the node's first join is an equality
	// (hashed; hashSlot/hashAttr from the compiler), probes replace scans:
	// leftActivate consults the memory's value index on hashAttr, and
	// rightAssert consults the parent's succIdx entry for hashSlot — the
	// parent's tokens keyed by binds[hashSlot] — or, for negative nodes,
	// this node's negIdx. The parent keeps one succIdx entry per slot its
	// hashed children probe, so children probing the same slot share it.
	// elIdx keys a positive node's tokens by matched element, so
	// rightRetract finds the dying tokens without scanning the level.
	//
	// The token indexes are lazy: absent until the first probe needs them
	// (succIndex/negIndex/elIndex build from the stored tokens), kept
	// current by attach/delete afterwards. Seeding therefore files
	// nothing, and nodes over static classes — never hit by a right
	// activation after the seed — never pay index maintenance at all.
	hashed   bool
	hashSlot int
	hashAttr int
	memIdx   *memIndex
	succIdx  []slotIndex
	negIdx   map[any][]*token
	elIdx    map[*Element][]*token

	parent   *betaNode
	children []*betaNode // none at a production node
	tokens   []*token
}

// slotIndex keys a node's tokens by the value bound in one slot.
type slotIndex struct {
	slot   int
	tokens map[any][]*token
}

// newBetaNode builds rr's node for one compiled pattern over mem, as a
// child of parent (nil for a first node).
func newBetaNode(rr *reteRule, mem *alphaMem, cp compiledPat, parent *betaNode) *betaNode {
	n := &betaNode{
		rr:     rr,
		mem:    mem,
		neg:    cp.negated,
		joins:  cp.joins,
		projs:  cp.projs,
		mask:   cp.mask,
		parent: parent,
	}
	if cp.hashSlot >= 0 {
		n.hashed = true
		n.hashSlot = cp.hashSlot
		n.hashAttr = cp.hashAttr
		n.memIdx = mem.ensureIndex(cp.hashAttr)
		// The token-side indexes (the parent's succIdx, a negative node's
		// negIdx, every positive node's elIdx) are built lazily on first
		// probe.
	}
	if parent != nil {
		parent.children = append(parent.children, n)
	}
	return n
}

// token is a stored partial match. For positive nodes, el is the element
// this level matched and binds the accumulated binding vector (shared
// with the parent when the level binds nothing new). For negative nodes,
// el is nil and negMatches lists the elements currently blocking it.
type token struct {
	node     *betaNode
	parent   *token
	el       *Element
	binds    []any
	children []*token

	idx        int        // position in node.tokens (swap-remove)
	negMatches []*Element // negative nodes: current blockers
	match      *Match     // production level: conflict-set entry, if any
	// time is el's time tag as the agenda last saw it: set when the token
	// is derived, and restamped only while every instantiation below it is
	// off the agenda, so queued entries keep the key they were sorted by.
	time int
	dead bool
}

// pass runs the node's compiled join tests: each joined attribute must be
// present and equal to its bound variable.
func (n *betaNode) pass(binds []any, el *Element) bool {
	for _, j := range n.joins {
		if v := el.vals[j.attr]; v == nil || v != binds[j.slot] {
			return false
		}
	}
	return true
}

// blocked reports whether a token suppresses downstream propagation.
func (t *token) blocked() bool { return len(t.negMatches) > 0 }

// --- beta operations: each node's work is done, and counted, by its owner ---

// leftActivate matches a new left token against the node's memory and
// extends the path. Hashed nodes probe the memory's value index with the
// token's bound slot instead of scanning every member.
func (n *betaNode) leftActivate(left *token) {
	rr := n.rr
	els := n.mem.els
	if n.hashed {
		els = n.memIdx.bucket[left.binds[n.hashSlot]]
	}
	if n.neg {
		t := rr.newToken()
		t.node, t.parent, t.binds = n, left, left.binds
		for _, el := range els {
			rr.stats.joinTests++
			if n.pass(left.binds, el) {
				t.negMatches = append(t.negMatches, el)
			}
		}
		n.attach(left, t)
		if !t.blocked() {
			n.downstream(t)
		}
		return
	}
	for _, el := range els {
		rr.stats.joinTests++
		if n.pass(left.binds, el) {
			n.extend(left, el)
		}
	}
}

// extend derives the token joining left with el at a positive node. Its
// binding vector has the owner's width, so a shared node hands children in
// other rules a vector of another width. That is sound: every sharer
// numbers its first pattern's slots alike, a child that binds copies the
// slots its own width holds, and each later slot is written by its
// projection before anything reads it.
func (n *betaNode) extend(left *token, el *Element) {
	rr := n.rr
	binds := left.binds
	if len(n.projs) > 0 {
		// Binding vectors are uniformly len(slotNames), so any recycled one
		// fits; copy overwrites every slot.
		if k := len(rr.bindsFree); k > 0 {
			binds = rr.bindsFree[k-1]
			rr.bindsFree = rr.bindsFree[:k-1]
		} else {
			binds = make([]any, len(rr.cr.slotNames))
		}
		copy(binds, left.binds)
		for _, pj := range n.projs {
			binds[pj.slot] = el.vals[pj.attr]
		}
	}
	t := rr.newToken()
	t.node, t.parent, t.el, t.binds, t.time = n, left, el, binds, el.Time
	n.attach(left, t)
	n.downstream(t)
}

func (n *betaNode) attach(left *token, t *token) {
	t.idx = len(n.tokens)
	n.tokens = append(n.tokens, t)
	left.children = append(left.children, t)
	for _, ix := range n.succIdx {
		k := t.binds[ix.slot]
		ix.tokens[k] = append(ix.tokens[k], t)
	}
	if n.negIdx != nil {
		k := t.binds[n.hashSlot]
		n.negIdx[k] = append(n.negIdx[k], t)
	}
	if n.elIdx != nil {
		n.elIdx[t.el] = append(n.elIdx[t.el], t)
	}
	n.rr.stats.asserts++
}

// succIndex returns the node's tokens keyed by the value in slot, the
// index a hashed child probes, building it on first use.
func (n *betaNode) succIndex(slot int) map[any][]*token {
	for _, ix := range n.succIdx {
		if ix.slot == slot {
			return ix.tokens
		}
	}
	m := make(map[any][]*token, len(n.tokens))
	for _, t := range n.tokens {
		k := t.binds[slot]
		m[k] = append(m[k], t)
	}
	n.succIdx = append(n.succIdx, slotIndex{slot: slot, tokens: m})
	return m
}

// negIndex returns a negative node's own tokens keyed by its hash slot,
// building the index on first use.
func (n *betaNode) negIndex() map[any][]*token {
	if n.negIdx == nil {
		n.negIdx = make(map[any][]*token, len(n.tokens))
		for _, t := range n.tokens {
			k := t.binds[n.hashSlot]
			n.negIdx[k] = append(n.negIdx[k], t)
		}
	}
	return n.negIdx
}

// elIndex returns a positive node's tokens keyed by matched element,
// building the index on first use.
func (n *betaNode) elIndex() map[*Element][]*token {
	if n.elIdx == nil {
		n.elIdx = make(map[*Element][]*token, len(n.tokens))
		for _, t := range n.tokens {
			n.elIdx[t.el] = append(n.elIdx[t.el], t)
		}
	}
	return n.elIdx
}

// unfile removes t from one token bucket by identity.
func unfile(m map[any][]*token, k any, t *token) {
	b := m[k]
	for i, x := range b {
		if x == t {
			last := len(b) - 1
			b[i] = b[last]
			m[k] = b[:last]
			return
		}
	}
}

// downstream continues propagation into n's children, whichever rules they
// belong to, or emits a match at a production node.
func (n *betaNode) downstream(t *token) {
	if len(n.children) == 0 {
		n.rr.addMatch(t)
		return
	}
	for _, c := range n.children {
		c.leftActivate(t)
	}
}

// rightAssert handles an element entering n's alpha memory. The element is
// already in the memory; joining against stored left tokens derives
// exactly the new tokens. A rule's nodes on one memory are activated
// deepest first (rete.go), so a left token created by THIS change at an
// earlier level has already joined the full memory — including this
// element — via leftActivate, and is not yet stored when this node runs:
// no duplicates on self-joins. A shared first node is activated in its
// owner's entry, so a rule with a later node on that memory does not share
// it (rete.sharedFirst). Hashed nodes probe the token indexes with the
// element's join-attribute value instead of scanning the level.
func (n *betaNode) rightAssert(el *Element) {
	rr := n.rr
	if n.neg {
		cands := n.tokens
		if n.hashed {
			v := el.vals[n.hashAttr]
			if v == nil {
				return // the first join requires the attribute present
			}
			cands = n.negIndex()[v]
		}
		for _, t := range cands {
			if t.dead {
				continue
			}
			rr.stats.joinTests++
			if n.pass(t.binds, el) {
				t.negMatches = append(t.negMatches, el)
				if len(t.negMatches) == 1 {
					t.block()
				}
			}
		}
		return
	}
	lefts := n.leftTokens()
	if n.hashed {
		v := el.vals[n.hashAttr]
		if v == nil {
			return
		}
		lefts = n.parent.succIndex(n.hashSlot)[v]
	}
	for _, left := range lefts {
		if left.dead || left.blocked() {
			continue
		}
		rr.stats.joinTests++
		if n.pass(left.binds, el) {
			n.extend(left, el)
		}
	}
}

// rightRetract handles an element leaving n's alpha memory.
func (n *betaNode) rightRetract(el *Element) {
	if n.neg {
		for _, t := range n.tokens {
			if t.dead {
				continue
			}
			for i, x := range t.negMatches {
				if x != el {
					continue
				}
				last := len(t.negMatches) - 1
				t.negMatches[i] = t.negMatches[last]
				t.negMatches = t.negMatches[:last]
				if last == 0 {
					n.downstream(t)
				}
				break
			}
		}
		return
	}
	rr := n.rr
	rr.scratch = append(rr.scratch[:0], n.elIndex()[el]...)
	for _, t := range rr.scratch {
		t.delete()
	}
}

// leftTokens returns the stored left inputs of a node: the owner's root
// for level 0, else the parent's tokens. Callers must skip dead and
// blocked entries; extend may append to a DEEPER node's token list but
// never to the one being iterated (every path is acyclic and strictly
// ordered).
func (n *betaNode) leftTokens() []*token {
	if n.parent == nil {
		return n.rr.rootSlice
	}
	return n.parent.tokens
}

// delete removes a token and cascades through its descendants, in
// whichever rules they belong to; the node's owner recycles it.
func (t *token) delete() {
	if t.dead {
		return
	}
	t.dead = true
	n := t.node
	rr := n.rr
	last := len(n.tokens) - 1
	moved := n.tokens[last]
	n.tokens[t.idx] = moved
	moved.idx = t.idx
	n.tokens = n.tokens[:last]
	for _, ix := range n.succIdx {
		unfile(ix.tokens, t.binds[ix.slot], t)
	}
	if n.negIdx != nil {
		unfile(n.negIdx, t.binds[n.hashSlot], t)
	}
	if n.elIdx != nil {
		b := n.elIdx[t.el]
		for i, x := range b {
			if x == t {
				l := len(b) - 1
				b[i] = b[l]
				n.elIdx[t.el] = b[:l]
				break
			}
		}
	}
	if p := t.parent; p != nil && !p.dead {
		for i, c := range p.children {
			if c == t {
				l := len(p.children) - 1
				p.children[i] = p.children[l]
				p.children = p.children[:l]
				break
			}
		}
	}
	t.block()
	rr.stats.retracts++
	// The cascade above severed every reference to t (indexes, parent,
	// children, conflict set), so it and — when this level allocated one in
	// extend — its binding vector can be recycled. Descendants sharing the
	// vector were just deleted with it, and fired matches render their
	// bindings at fire time, so nothing live can still read either.
	if t.el != nil && len(n.projs) > 0 {
		rr.bindsFree = append(rr.bindsFree, t.binds)
	}
	rr.free = append(rr.free, t)
}

// block severs a token's downstream derivations: its children and, when
// the token sits at the production level, its conflict-set entry.
func (t *token) block() {
	kids := t.children
	t.children = t.children[:0] // keep the backing array for reuse
	for _, c := range kids {
		c.delete()
	}
	if t.match != nil {
		t.node.rr.removeMatch(t)
	}
}

// addMatch emits a token's instantiation into the rule's conflict set and
// queues it on the agenda unless refraction has spent it.
func (rr *reteRule) addMatch(t *token) {
	els := make([]*Element, rr.cr.positives)
	i := rr.cr.positives
	for x := t; x != nil; x = x.parent {
		if x.el != nil {
			i--
			els[i] = x.el
		}
	}
	m := &Match{
		Rule:     rr.r,
		Elements: els,
		binds:    bindings{names: rr.cr.slotNames, vals: t.binds},
		tok:      t,
	}
	t.match = m
	rr.size++
	rr.stats.matchAdds++
	rr.ag.queue(m)
}

func (rr *reteRule) removeMatch(t *token) {
	rr.ag.dequeue(t.match)
	t.match = nil
	rr.size--
	rr.stats.matchDels++
}

// restamp handles a Modify of el that leaves n's join outcomes alone. The
// tokens matching el survive, but el's new time tag changes the rank and
// the refraction key of every instantiation below them, in every rule,
// and no conflict-set event reports it: take those instantiations off the
// agenda, restamp, and queue them again. No firing can have had the new
// key, so refraction no longer spends them.
func (n *betaNode) restamp(el *Element) {
	ag := n.rr.ag
	for _, t := range n.elIndex()[el] {
		ag.requeue(t, false)
		t.time = el.Time
		ag.requeue(t, true)
	}
}

// requeue dequeues (queue false) or unspends and queues every
// instantiation derived from t. Only production-level tokens carry
// matches, and they have no children.
func (a *agenda) requeue(t *token, queue bool) {
	if m := t.match; m != nil {
		if queue {
			m.spent = false
			a.queue(m)
		} else {
			a.dequeue(m)
		}
		return
	}
	for _, c := range t.children {
		a.requeue(c, queue)
	}
}
