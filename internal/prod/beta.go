package prod

// The beta network: one left-linear chain of join nodes per rule, one
// node per pattern, each fed by a (shared) alpha memory. Nodes store
// tokens — partial matches covering patterns 0..level — so a WM change
// reprocesses only the join work downstream of the memories it touched
// instead of re-enumerating whole rules.
//
// Negated patterns become negative nodes: their tokens carry the same
// bindings as their left parent plus the identity list of elements that
// currently block them (the counted negative-join-results of Doorenbos's
// thesis, with identities kept so retraction needs no re-testing against
// post-hoc attribute values). A blocked token keeps its place in the
// chain; when its last blocker disappears it resumes propagation.
//
// Beta state is strictly per-rule: tokens, matches, and counters are
// owned by one reteRule.

// betaNode is one join (or negative-join) node.
type betaNode struct {
	mem   *alphaMem
	neg   bool
	joins []joinFn
	projs []projSpec
	attrs map[string]bool // element attrs its joins/projs read

	// Hashed-join acceleration. When the node's first join is an equality
	// (hashed; hashSlot/hashAttr from the compiler), probes replace scans:
	// leftActivate consults the memory's value index on hashAttr, and
	// rightAssert consults the previous node's succIdx — its tokens keyed
	// by binds[hashSlot] — or, for negative nodes, this node's negIdx.
	// elIdx keys a positive node's tokens by matched element, so
	// rightRetract finds the dying tokens without scanning the level.
	//
	// The token indexes are lazy: nil until the first probe needs them
	// (succIndex/negIndex/elIndex build from the stored tokens), kept
	// current by attach/deleteToken afterwards. Seeding therefore files
	// nothing, and nodes over static classes — never hit by a right
	// activation after the seed — never pay index maintenance at all.
	hashed   bool
	hashSlot int
	hashAttr string
	memIdx   *memIndex
	succIdx  map[any][]*token
	negIdx   map[any][]*token
	elIdx    map[*Element][]*token

	prev, next *betaNode
	tokens     []*token
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
	match      *Match     // production level: conflict-set entry
	matchIdx   int
	dead       bool
}

// pass runs the node's compiled join tests.
func (n *betaNode) pass(binds []any, el *Element) bool {
	for _, j := range n.joins {
		if !j(binds, el) {
			return false
		}
	}
	return true
}

// touches reports whether a Modify changing attrs can affect this node's
// join outcomes.
func (n *betaNode) touches(attrs []string) bool {
	for _, a := range attrs {
		if n.attrs[a] {
			return true
		}
	}
	return false
}

// blocked reports whether a token suppresses downstream propagation.
func (t *token) blocked() bool { return len(t.negMatches) > 0 }

// --- per-rule beta operations (methods on reteRule, defined in rete.go) ---

// leftActivate matches a new left token against the node's memory as of
// event s and extends the chain. Hashed nodes probe the memory's value
// index with the token's bound slot instead of scanning every entry.
func (rr *reteRule) leftActivate(n *betaNode, left *token, s int) {
	entries := n.mem.entries
	var hits []int
	if n.hashed {
		hits = n.memIdx.bucket[left.binds[n.hashSlot]]
	}
	if n.neg {
		t := rr.newToken()
		t.node, t.parent, t.binds = n, left, left.binds
		if n.hashed {
			for _, i := range hits {
				en := &entries[i]
				if !en.visible(s) {
					continue
				}
				rr.stats.joinTests++
				if n.pass(left.binds, en.el) {
					t.negMatches = append(t.negMatches, en.el)
				}
			}
		} else {
			for i := range entries {
				en := &entries[i]
				if !en.visible(s) {
					continue
				}
				rr.stats.joinTests++
				if n.pass(left.binds, en.el) {
					t.negMatches = append(t.negMatches, en.el)
				}
			}
		}
		rr.attach(n, left, t)
		if !t.blocked() {
			rr.downstream(n, t, s)
		}
		return
	}
	if n.hashed {
		for _, i := range hits {
			en := &entries[i]
			if !en.visible(s) {
				continue
			}
			rr.stats.joinTests++
			if n.pass(left.binds, en.el) {
				rr.extend(n, left, en.el, s)
			}
		}
		return
	}
	for i := range entries {
		en := &entries[i]
		if !en.visible(s) {
			continue
		}
		rr.stats.joinTests++
		if n.pass(left.binds, en.el) {
			rr.extend(n, left, en.el, s)
		}
	}
}

// extend derives the token joining left with el at a positive node.
func (rr *reteRule) extend(n *betaNode, left *token, el *Element, s int) {
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
			v, _ := el.lookup(pj.attr)
			binds[pj.slot] = v
		}
	}
	t := rr.newToken()
	t.node, t.parent, t.el, t.binds = n, left, el, binds
	rr.attach(n, left, t)
	rr.downstream(n, t, s)
}

func (rr *reteRule) attach(n *betaNode, left *token, t *token) {
	t.idx = len(n.tokens)
	n.tokens = append(n.tokens, t)
	left.children = append(left.children, t)
	if n.succIdx != nil {
		k := t.binds[n.next.hashSlot]
		n.succIdx[k] = append(n.succIdx[k], t)
	}
	if n.negIdx != nil {
		k := t.binds[n.hashSlot]
		n.negIdx[k] = append(n.negIdx[k], t)
	}
	if n.elIdx != nil {
		n.elIdx[t.el] = append(n.elIdx[t.el], t)
	}
	rr.stats.asserts++
}

// succIndex returns the node's tokens keyed by the NEXT node's hash slot,
// building the index on first use.
func (n *betaNode) succIndex() map[any][]*token {
	if n.succIdx == nil {
		n.succIdx = make(map[any][]*token, len(n.tokens))
		slot := n.next.hashSlot
		for _, t := range n.tokens {
			k := t.binds[slot]
			n.succIdx[k] = append(n.succIdx[k], t)
		}
	}
	return n.succIdx
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

// downstream continues propagation past n, or emits a match at the last
// level.
func (rr *reteRule) downstream(n *betaNode, t *token, s int) {
	if n.next == nil {
		rr.addMatch(t)
		return
	}
	rr.leftActivate(n.next, t, s)
}

// rightAssert handles an element entering n's alpha memory at event s.
// The element is already in the memory (visible at s); joining against
// stored left tokens derives exactly the new tokens. Nodes are processed
// in descending level order per event (rete.go), so a left token created
// by THIS event at an earlier level has already joined the full memory —
// including this element — via leftActivate, and is not yet stored when
// this node runs: no duplicates on self-joins. Hashed nodes probe the
// token indexes with the element's join-attribute value instead of
// scanning the level.
func (rr *reteRule) rightAssert(n *betaNode, el *Element, s int) {
	if n.neg {
		cands := n.tokens
		if n.hashed {
			v, ok := el.lookup(n.hashAttr)
			if !ok {
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
					rr.block(t)
				}
			}
		}
		return
	}
	lefts := rr.leftTokens(n)
	if n.hashed {
		v, ok := el.lookup(n.hashAttr)
		if !ok {
			return
		}
		lefts = n.prev.succIndex()[v]
	}
	for _, left := range lefts {
		if left.dead || left.blocked() {
			continue
		}
		rr.stats.joinTests++
		if n.pass(left.binds, el) {
			rr.extend(n, left, el, s)
		}
	}
}

// rightRetract handles an element leaving n's alpha memory at event s.
func (rr *reteRule) rightRetract(n *betaNode, el *Element, s int) {
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
					rr.downstream(n, t, s)
				}
				break
			}
		}
		return
	}
	rr.scratch = append(rr.scratch[:0], n.elIndex()[el]...)
	for _, t := range rr.scratch {
		rr.deleteToken(t)
	}
}

// leftTokens returns the stored left inputs of a node: the rule's root
// for level 0, else the previous node's tokens. Callers must skip dead
// and blocked entries; extend may append to a LATER node's token list but
// never to the one being iterated (the chain is acyclic and strictly
// ordered).
func (rr *reteRule) leftTokens(n *betaNode) []*token {
	if n.prev == nil {
		return rr.rootSlice
	}
	return n.prev.tokens
}

// deleteToken removes a token and cascades through its descendants.
func (rr *reteRule) deleteToken(t *token) {
	if t.dead {
		return
	}
	t.dead = true
	n := t.node
	last := len(n.tokens) - 1
	moved := n.tokens[last]
	n.tokens[t.idx] = moved
	moved.idx = t.idx
	n.tokens = n.tokens[:last]
	if n.succIdx != nil {
		unfile(n.succIdx, t.binds[n.next.hashSlot], t)
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
	rr.block(t)
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
func (rr *reteRule) block(t *token) {
	kids := t.children
	t.children = t.children[:0] // keep the backing array for reuse
	for _, c := range kids {
		rr.deleteToken(c)
	}
	if t.match != nil {
		rr.removeMatch(t)
	}
}

// addMatch emits a token's instantiation into the rule's conflict set.
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
	t.matchIdx = len(rr.cs)
	rr.cs = append(rr.cs, m)
	rr.stats.matchAdds++
}

func (rr *reteRule) removeMatch(t *token) {
	last := len(rr.cs) - 1
	moved := rr.cs[last]
	rr.cs[t.matchIdx] = moved
	moved.tok.matchIdx = t.matchIdx
	rr.cs = rr.cs[:last]
	t.match = nil
	rr.stats.matchDels++
}
