package prod

import (
	"slices"
	"time"
)

// rete is the engine's full discrimination network. The alpha layer
// classifies each WM change once across all rules; the beta layer stores
// partial-match tokens so only the join work downstream of an affected
// memory reruns. A batch is applied one change at a time: each change
// updates every alpha memory of its class, and each memory it enters,
// leaves or stays in right-activates the nodes it feeds before the next
// memory and the next change are taken. Every join therefore reads the
// memberships that hold at that point of the batch, with no versioning.
// The nodes queue and dequeue their rules' instantiations on the engine's
// agenda, whose order is total, so the order in which rules are activated
// never shows in selection.
//
// Rules share first nodes (addRule, beta.go). A memory right-activates a
// shared node in its owner's entry, so the owner is charged the match time
// of everything that activation propagates, into other rules' private
// nodes included.
//
// Conflict resolution then reads the top of the agenda.

type rete struct {
	alpha *alphaNet
	rules []*reteRule

	seeded   bool
	clock    time.Time // the current batch's last match-time read
	patterns int       // compiled patterns (sharing statistic)
}

// memChange is what one WM change did to one alpha memory.
type memChange uint8

const (
	memAdd   memChange = iota // the element entered the memory
	memDel                    // the element left it
	memTouch                  // the element stayed through a Modify
)

// reteRule is one rule's path through the beta network, the token state of
// the nodes it owns, and its batch-local counters.
type reteRule struct {
	idx   int
	r     *Rule
	cr    *compiledRule
	nodes []*betaNode // one per pattern; nodes[0] may be another rule's

	root      *token
	rootSlice []*token
	size      int     // instantiations in the conflict set, spent ones included
	ag        *agenda // the engine's agenda, shared by every rule

	scratch   []*token // rightRetract collection buffer
	free      []*token // recycled tokens (token churn is the hot path)
	bindsFree [][]any  // recycled binding vectors (all len(slotNames))
	stats     reteBatchStats
}

// newToken takes a token from the rule's free list, or allocates one.
func (rr *reteRule) newToken() *token {
	if n := len(rr.free); n > 0 {
		t := rr.free[n-1]
		rr.free = rr.free[:n-1]
		*t = token{children: t.children[:0], negMatches: t.negMatches[:0]}
		return t
	}
	return &token{}
}

// reteBatchStats accumulates one rule's work during a batch; folded into
// the engine metrics at the end of the batch. The work counters cover the
// nodes the rule owns, whichever rule's activation reached them; elapsed
// and activated cover its own memory-successor entries.
type reteBatchStats struct {
	joinTests            int
	asserts, retracts    int
	matchAdds, matchDels int
	elapsed              time.Duration
	activated            bool // a memory right-activated the rule's nodes
}

func newRete() *rete {
	return &rete{alpha: newAlphaNet()}
}

// addRule splices a compiled rule into the network. The first node is
// shared when an earlier rule has one on the same alpha memory with the
// same projections (sharedFirst). Rules register before the first cycle,
// so the nodes start empty and seed activates them.
func (rt *rete) addRule(r *Rule, cr *compiledRule, ag *agenda) {
	rr := &reteRule{idx: r.index, r: r, cr: cr, ag: ag}
	rr.root = &token{binds: make([]any, len(cr.slotNames))}
	rr.rootSlice = []*token{rr.root}
	mems := make([]*alphaMem, len(cr.pats))
	for i, cp := range cr.pats {
		mems[i] = rt.alpha.memFor(cp.class, cp.alphas)
		rt.patterns++
	}
	var parent *betaNode
	for i, cp := range cr.pats {
		var n *betaNode
		if i == 0 {
			n = rt.sharedFirst(cr, mems)
		}
		if n == nil {
			n = newBetaNode(rr, mems[i], cp, parent)
		}
		rr.nodes = append(rr.nodes, n)
		parent = n
	}
	// Register the rule's own nodes with their memories, deepest first. All
	// of them are added here, so its entry on each memory is one run.
	for i := len(rr.nodes) - 1; i >= 0; i-- {
		n := rr.nodes[i]
		if n.rr != rr {
			continue
		}
		mem := n.mem
		if k := len(mem.succs) - 1; k >= 0 && mem.succs[k].rr == rr {
			mem.succs[k].nodes = append(mem.succs[k].nodes, n)
		} else {
			mem.succs = append(mem.succs, memSucc{rr: rr, nodes: []*betaNode{n}})
		}
	}
	rt.rules = append(rt.rules, rr)
}

// sharedFirst returns the earlier rule's first node that a new rule's first
// pattern compiles to: the same alpha memory and the same projections, so
// variable names may differ. Only multi-pattern rules share, so a shared
// node is never a production node. A rule with a later pattern on the same
// memory keeps its own first node: the memory would activate the shared
// node in the owner's entry before the rule's later node in its own,
// breaking the deepest-first order rightAssert relies on.
func (rt *rete) sharedFirst(cr *compiledRule, mems []*alphaMem) *betaNode {
	if len(mems) < 2 || slices.Contains(mems[1:], mems[0]) {
		return nil
	}
	for _, o := range rt.rules {
		if n := o.nodes[0]; len(o.nodes) > 1 && n.mem == mems[0] && slices.Equal(n.projs, cr.pats[0].projs) {
			return n
		}
	}
	return nil
}

// seed runs the network's first full match over live working memory and
// sorts the agenda once, after every rule has been activated. Each shared
// first node is activated once, by its owner, which registered before its
// sharers and so derives their private tokens before they are folded.
func (rt *rete) seed(e *Engine) {
	e.agenda.seeding = true
	rt.alpha.seed(e.WM)
	rt.seeded = true
	rt.foldAlphaEvals(e)
	for _, rr := range rt.rules {
		t0 := time.Now()
		if first := rr.nodes[0]; first.rr == rr {
			first.leftActivate(rr.root)
		}
		rr.stats.elapsed = time.Since(t0)
		rt.foldRule(e, rr, true)
	}
	e.agenda.seeded()
}

// apply propagates one batch of WM changes through the network, one change
// at a time.
func (rt *rete) apply(e *Engine, changes []Change) {
	// Refile the modified members first: hashed probes at every change of
	// the batch read final attribute values, like all joins.
	for _, ch := range changes {
		if ch.Kind == ChangeModify {
			for _, mem := range rt.alpha.byClass[ch.El.Class] {
				mem.reindexEl(ch.El)
			}
		}
	}
	rt.clock = time.Now()
	for _, ch := range changes {
		el := ch.El
		mems := rt.alpha.byClass[el.Class]
		if len(mems) == 0 {
			continue
		}
		rt.alpha.gen++
		for _, mem := range mems {
			switch ch.Kind {
			case ChangeMake:
				if mem.eval(el, rt.alpha) {
					mem.add(el)
					rt.activate(mem, memAdd, el, 0)
				}
			case ChangeRemove:
				if mem.has(el) {
					mem.del(el)
					rt.activate(mem, memDel, el, 0)
				}
			case ChangeModify:
				// A Modify changing none of the slots the memory's tests
				// read cannot flip membership.
				wasIn := mem.has(el)
				nowIn := wasIn
				if mem.testMask&ch.Changed != 0 {
					nowIn = mem.eval(el, rt.alpha)
				}
				switch {
				case wasIn && !nowIn:
					mem.del(el)
					rt.activate(mem, memDel, el, 0)
				case !wasIn && nowIn:
					mem.add(el)
					rt.activate(mem, memAdd, el, 0)
				case wasIn:
					// Membership held, but joins may care, and the new
					// time tag re-ranks the element's instantiations even
					// when nothing they were matched on changed.
					rt.activate(mem, memTouch, el, ch.Changed)
				}
			}
		}
	}
	rt.foldAlphaEvals(e)
	// A shared node's activation works in its sharers' private nodes too,
	// so every rule with batch counters is folded, not only the activated.
	for _, rr := range rt.rules {
		if rr.stats != (reteBatchStats{}) {
			rt.foldRule(e, rr, false)
		}
	}
}

// activate right-activates the nodes mem feeds with one change of el's
// membership, rule by rule and each rule's nodes deepest first. Match time
// chains one clock read per memory-successor entry: its rule is charged
// the span since the previous read of the batch, which folds the alpha
// work in between and the work propagated into other rules' nodes into its
// figure but keeps the batch's total exact. changed is a memTouch's
// Change.Changed.
func (rt *rete) activate(mem *alphaMem, kind memChange, el *Element, changed uint64) {
	for _, sc := range mem.succs {
		rr := sc.rr
		rr.stats.activated = true
		for _, n := range sc.nodes {
			switch kind {
			case memAdd:
				n.rightAssert(el)
			case memDel:
				n.rightRetract(el)
			case memTouch:
				switch {
				case n.mask&changed != 0:
					// The Modify changed a slot the node's joins or
					// projections read. Rebuilt tokens carry the new time
					// tag.
					n.rightRetract(el)
					n.rightAssert(el)
				case !n.neg:
					n.restamp(el)
				}
			}
		}
		now := time.Now()
		rr.stats.elapsed += now.Sub(rt.clock)
		rt.clock = now
	}
}

// foldAlphaEvals moves the constant-test evaluations made since the last
// fold into the engine metrics.
func (rt *rete) foldAlphaEvals(e *Engine) {
	e.matchCalls += rt.alpha.batchEvals
	e.met.alphaEvals += rt.alpha.batchEvals
	rt.alpha.batchEvals = 0
}

// foldRule moves a rule's batch counters into the engine metrics.
// rebuild marks the seeding activation rather than an incremental batch,
// which counts as a delta only when a memory right-activated the rule's
// own nodes.
func (rt *rete) foldRule(e *Engine, rr *reteRule, rebuild bool) {
	st := &rr.stats
	rm := &e.met.rules[rr.idx]
	switch {
	case rebuild:
		rm.rebuilds++
		e.met.rebuilds++
	case st.activated:
		rm.deltas++
		e.met.deltas++
	}
	rm.matchCalls += st.joinTests
	rm.matchTime += st.elapsed
	rm.added += st.matchAdds
	rm.invalidated += st.matchDels
	e.matchCalls += st.joinTests
	e.met.added += st.matchAdds
	e.met.invalidated += st.matchDels
	e.met.joinTests += st.joinTests
	e.met.tokenAsserts += st.asserts
	e.met.tokenRetracts += st.retracts
	*st = reteBatchStats{}
}

// tokensLive counts stored tokens across the network (metrics snapshot).
func (rt *rete) tokensLive() int {
	n := 0
	for _, rr := range rt.rules {
		for _, nd := range rr.nodes {
			if nd.rr == rr {
				n += len(nd.tokens)
			}
		}
	}
	return n
}

// nodeCounts returns the join and negative node totals, each shared node
// counted once.
func (rt *rete) nodeCounts() (joins, negs int) {
	for _, rr := range rt.rules {
		for _, nd := range rr.nodes {
			if nd.rr != rr {
				continue
			}
			if nd.neg {
				negs++
			} else {
				joins++
			}
		}
	}
	return
}
