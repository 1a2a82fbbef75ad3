package prod

import "time"

// rete is the engine's full discrimination network (the default matcher).
// The alpha layer classifies each WM change once across all rules; the
// beta layer stores partial-match tokens so only the join work downstream
// of an affected memory reruns. Batches are applied in two phases:
//
//  1. alpha phase: each pending Change is classified against the shared
//     memories, producing an ordered event list (assert / retract /
//     touch) with per-event sequence numbers and versioned membership.
//  2. beta phase: every rule replays the event list against its private
//     token state, queueing and dequeueing its instantiations on the
//     engine's agenda. Rules share nothing else but the memories and
//     elements, which the phase only reads, and the agenda's order is
//     total, so per-rule propagation is order-independent across rules.
//
// Conflict resolution then reads the top of the agenda.

type rete struct {
	alpha *alphaNet
	rules []*reteRule

	seeded   bool
	seq      int // event sequence within the current batch
	events   []alphaEvent
	dirty    []*alphaMem // memories needing compaction after the batch
	patterns int         // compiled patterns (sharing statistic)
}

type alphaEventKind uint8

const (
	evAssert alphaEventKind = iota
	evRetract
	evTouch // membership kept through a Modify (attrs: the changed ones)
)

// alphaEvent is one classified WM change against one memory.
type alphaEvent struct {
	seq   int
	kind  alphaEventKind
	mem   *alphaMem
	el    *Element
	attrs []string // evTouch: the changed attributes
}

// reteRule is one rule's beta chain, its token state, and its batch-local
// counters.
type reteRule struct {
	idx   int
	r     *Rule
	cr    *compiledRule
	nodes []*betaNode
	// byMem lists the rule's nodes per alpha-memory id, descending level
	// order. Dense by mem id — the per-(rule, event) dispatch is a slice
	// index, not a map probe. Memories created by later rules have ids past
	// the slice end, which correctly reads as "not watched".
	byMem [][]*betaNode

	root      *token
	rootSlice []*token
	size      int     // instantiations in the conflict set, spent ones included
	ag        *agenda // the engine's agenda, shared by every rule

	scratch   []*token // rightRetract collection buffer
	free      []*token // recycled tokens (token churn is the hot path)
	bindsFree [][]any  // recycled binding vectors (all len(slotNames))
	stats     reteBatchStats
}

// nodesFor returns the rule's nodes on mem, innermost (deepest) first.
func (rr *reteRule) nodesFor(mem *alphaMem) []*betaNode {
	if mem.id >= len(rr.byMem) {
		return nil
	}
	return rr.byMem[mem.id]
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
// the engine metrics after the beta phase.
type reteBatchStats struct {
	joinTests            int
	asserts, retracts    int
	matchAdds, matchDels int
	elapsed              time.Duration
	touched              bool
}

func newRete() *rete {
	return &rete{alpha: newAlphaNet()}
}

// addRule compiles a rule and splices its beta chain into the network.
// If the engine is already seeded, the new rule's memories are populated
// from live WM and its chain activated immediately.
func (rt *rete) addRule(r *Rule, e *Engine) {
	cr := compileRule(r)
	rr := &reteRule{idx: r.index, r: r, cr: cr, ag: &e.agenda}
	rr.root = &token{binds: make([]any, len(cr.slotNames))}
	rr.rootSlice = []*token{rr.root}
	var prev *betaNode
	for _, cp := range cr.pats {
		mem := rt.alpha.memFor(cp.class, cp.alphas, e.WM, rt.seeded)
		mem.patterns++
		rt.patterns++
		n := &betaNode{
			mem:   mem,
			neg:   cp.negated,
			joins: cp.joins,
			projs: cp.projs,
			attrs: map[string]bool{},
			prev:  prev,
		}
		for _, a := range cp.attrs {
			n.attrs[a] = true
		}
		if cp.hashSlot >= 0 {
			n.hashed = true
			n.hashSlot = cp.hashSlot
			n.hashAttr = cp.hashAttr
			n.memIdx = mem.ensureIndex(cp.hashAttr)
			// The token-side indexes (the previous node's succIdx, a
			// negative node's negIdx, every positive node's elIdx) are
			// built lazily on first probe — see beta.go.
		}
		if prev != nil {
			prev.next = n
		}
		rr.nodes = append(rr.nodes, n)
		prev = n
	}
	maxID := 0
	for _, n := range rr.nodes {
		if n.mem.id > maxID {
			maxID = n.mem.id
		}
	}
	rr.byMem = make([][]*betaNode, maxID+1)
	for i := len(rr.nodes) - 1; i >= 0; i-- {
		n := rr.nodes[i]
		rr.byMem[n.mem.id] = append(rr.byMem[n.mem.id], n)
	}
	rt.rules = append(rt.rules, rr)
	if rt.seeded {
		t0 := time.Now()
		rr.leftActivate(rr.nodes[0], rr.root, 0)
		rr.stats.elapsed = time.Since(t0)
		rt.foldRule(e, rr, true)
	}
}

// resync rebuilds the network state and the agenda from live working
// memory: initial seeding, and re-entry after Exhaustive drove the engine.
// The agenda is sorted once, after every rule has been activated.
func (rt *rete) resync(e *Engine) {
	e.agenda.reset()
	defer e.agenda.seeded()
	for _, mem := range rt.alpha.memList {
		mem.reset()
	}
	rt.alpha.batchEvals = 0
	rt.alpha.seed(e.WM)
	rt.seeded = true
	evals := rt.alpha.batchEvals
	rt.alpha.batchEvals = 0
	e.matchCalls += evals
	e.met.alphaEvals += evals
	for _, rr := range rt.rules {
		for _, n := range rr.nodes {
			// Sweep the discarded tokens (and their owned binding vectors)
			// into the rule's free lists before rebuilding.
			for _, t := range n.tokens {
				if t.el != nil && len(n.projs) > 0 {
					rr.bindsFree = append(rr.bindsFree, t.binds)
				}
				rr.free = append(rr.free, t)
			}
			n.tokens = n.tokens[:0]
			// Drop the lazy token indexes; the next probe rebuilds them.
			n.succIdx = nil
			n.negIdx = nil
			n.elIdx = nil
		}
		rr.root.children = rr.root.children[:0]
		rr.size = 0
		rr.stats = reteBatchStats{}
		t0 := time.Now()
		rr.leftActivate(rr.nodes[0], rr.root, 0)
		rr.stats.elapsed = time.Since(t0)
		rt.foldRule(e, rr, true)
	}
}

// apply propagates one batch of WM changes through the network.
func (rt *rete) apply(e *Engine, changes []Change) {
	// Phase 1: classify each change against the shared memories.
	rt.seq = 0
	rt.events = rt.events[:0]
	rt.dirty = rt.dirty[:0]
	for _, ch := range changes {
		el := ch.El
		mems := rt.alpha.byClass[el.Class]
		if len(mems) == 0 {
			continue
		}
		rt.alpha.gen++
		switch ch.Kind {
		case ChangeMake:
			for _, mem := range mems {
				// AddRule-time population may already hold the element.
				if !mem.has(el) && mem.eval(el, rt.alpha) {
					rt.emit(evAssert, mem, el, nil)
				}
			}
		case ChangeRemove:
			for _, mem := range mems {
				if mem.has(el) {
					rt.emit(evRetract, mem, el, nil)
				}
			}
		case ChangeModify:
			for _, mem := range mems {
				// Keep value indexes filed under final attribute values
				// before any membership decision: hashed probes at every
				// event of this batch read final values, like all joins.
				mem.reindexEl(el)
				wasIn := mem.has(el)
				if !memTestsTouch(mem, ch.Attrs) {
					// Membership can't flip, but joins may care, and the
					// new time tag re-ranks the element's instantiations
					// even when nothing they were matched on changed.
					if wasIn {
						rt.emit(evTouch, mem, el, ch.Attrs)
					}
					continue
				}
				nowIn := mem.eval(el, rt.alpha)
				switch {
				case wasIn && !nowIn:
					rt.emit(evRetract, mem, el, nil)
				case !wasIn && nowIn:
					rt.emit(evAssert, mem, el, nil)
				case wasIn && nowIn:
					rt.emit(evTouch, mem, el, ch.Attrs)
				}
			}
		}
	}
	evals := rt.alpha.batchEvals
	rt.alpha.batchEvals = 0
	e.matchCalls += evals
	e.met.alphaEvals += evals

	// Phase 2: replay the event list per rule. Timing chains one clock
	// read per touched rule: each touched rule is charged the span since
	// the previous read, which folds the (nanosecond-scale) relevance
	// scans of untouched rules in between into its figure but keeps the
	// total exact.
	if len(rt.events) > 0 {
		t0 := time.Now()
		for _, rr := range rt.rules {
			if rr.processEvents(rt.events) {
				t1 := time.Now()
				rr.stats.elapsed += t1.Sub(t0)
				t0 = t1
			}
		}
	}

	// Fold counters and compact memories.
	for _, rr := range rt.rules {
		if rr.stats.touched {
			rt.foldRule(e, rr, false)
		}
	}
	for _, mem := range rt.dirty {
		mem.compact()
	}
}

// emit records one event, applying the membership change to the memory.
func (rt *rete) emit(kind alphaEventKind, mem *alphaMem, el *Element, attrs []string) {
	rt.seq++
	switch kind {
	case evAssert:
		mem.add(el, rt.seq)
	case evRetract:
		mem.del(el, rt.seq)
	}
	if mem.dirty && (len(rt.dirty) == 0 || rt.dirty[len(rt.dirty)-1] != mem) {
		rt.dirty = append(rt.dirty, mem)
	}
	rt.events = append(rt.events, alphaEvent{seq: rt.seq, kind: kind, mem: mem, el: el, attrs: attrs})
}

// memTestsTouch reports whether any of the memory's own tests read one of
// the changed attributes.
func memTestsTouch(mem *alphaMem, attrs []string) bool {
	for _, a := range attrs {
		if mem.testAttrs[a] {
			return true
		}
	}
	return false
}

// processEvents replays a batch's event list against one rule's chain and
// reports whether the rule was touched. Timing is the caller's job: clock
// reads are expensive enough to show in profiles, so rete.apply chains a
// single read per touched rule instead of bracketing every call here.
func (rr *reteRule) processEvents(evs []alphaEvent) bool {
	relevant := false
	for i := range evs {
		if len(rr.nodesFor(evs[i].mem)) > 0 {
			relevant = true
			break
		}
	}
	if !relevant {
		return false
	}
	rr.stats.touched = true
	for i := range evs {
		ev := &evs[i]
		for _, n := range rr.nodesFor(ev.mem) { // descending level
			switch ev.kind {
			case evAssert:
				rr.rightAssert(n, ev.el, ev.seq)
			case evRetract:
				rr.rightRetract(n, ev.el, ev.seq)
			case evTouch:
				switch {
				case n.touches(ev.attrs):
					// Rebuilt tokens carry the new time tag.
					rr.rightRetract(n, ev.el, ev.seq)
					rr.rightAssert(n, ev.el, ev.seq)
				case !n.neg:
					rr.restamp(n, ev.el)
				}
			}
		}
	}
	return true
}

// foldRule moves a rule's batch counters into the engine metrics.
// rebuild marks a from-scratch activation (seeding or late AddRule)
// rather than an incremental delta.
func (rt *rete) foldRule(e *Engine, rr *reteRule, rebuild bool) {
	st := &rr.stats
	rm := &e.met.rules[rr.idx]
	if rebuild {
		rm.rebuilds++
		e.met.rebuilds++
	} else {
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
			n += len(nd.tokens)
		}
	}
	return n
}

// nodeCounts returns the join and negative node totals.
func (rt *rete) nodeCounts() (joins, negs int) {
	for _, rr := range rt.rules {
		for _, nd := range rr.nodes {
			if nd.neg {
				negs++
			} else {
				joins++
			}
		}
	}
	return
}
