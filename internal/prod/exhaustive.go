package prod

import "time"

// The exhaustive matcher re-enumerates every rule's instantiations from
// scratch on every cycle: the original strategy, kept as Engine.Exhaustive
// and as the reference leg of the CrossCheck lockstep. It stores nothing
// between cycles, so it is the one oracle the Rete network is checked
// against (the conflict-set property tests diff against enumerate too).

// selectExhaustive picks the next instantiation by re-enumerating every
// rule. count is true when Exhaustive mode drives selection; CrossCheck's
// reference runs pass false so they do not perturb the match statistics.
func (e *Engine) selectExhaustive(count bool) *Match {
	var best *Match
	var bestRank recencyRank
	for _, r := range e.rules {
		e.enumerate(r, count, func(m *Match) {
			if r.Where != nil && !r.Where(m) {
				return
			}
			if e.agenda.fired[refractionKey(m)] {
				return
			}
			var rk recencyRank
			rk.init(m)
			if best == nil || betterRank(m, &rk, best, &bestRank) {
				best = m
				bestRank = rk
			}
		})
	}
	return best
}

// enumerate yields every instantiation of r's patterns under the current
// working memory, in deterministic candidate order. Where is *not* applied
// here: it is a per-cycle test, evaluated at selection time. Candidate
// elements per pattern come from the narrowest applicable index: an Eq
// test, or a Bind test whose variable is already bound, hashes directly to
// the matching elements. Negated patterns test the full working memory.
//
// With count, the pattern tests and the wall time (yield included) are
// charged to the engine's and the rule's match counters.
func (e *Engine) enumerate(r *Rule, count bool, yield func(*Match)) {
	var t0 time.Time
	if count {
		t0 = time.Now()
	}
	var env bindings
	els := make([]*Element, 0, len(r.Patterns))
	tested := 0
	var rec func(pi int)
	rec = func(pi int) {
		if pi == len(r.Patterns) {
			yield(&Match{Rule: r, Elements: append([]*Element(nil), els...), binds: env.snapshot()})
			return
		}
		p := r.Patterns[pi]
		candidates := e.candidates(p, &env)
		if p.Negated {
			for _, el := range candidates {
				tested++
				if mark, ok := p.match(el, &env); ok {
					env.undo(mark)
					return // negation fails
				}
			}
			rec(pi + 1)
			return
		}
		for _, el := range candidates {
			tested++
			if mark, ok := p.match(el, &env); ok {
				els = append(els, el)
				rec(pi + 1)
				els = els[:len(els)-1]
				env.undo(mark)
			}
		}
	}
	rec(0)
	if count {
		rm := &e.met.rules[r.index]
		e.matchCalls += tested
		rm.matchCalls += tested
		rm.matchTime += time.Since(t0)
	}
}

// candidates returns the narrowest element set the working-memory indexes
// offer for a pattern under the current bindings.
func (e *Engine) candidates(p Pattern, b *bindings) []*Element {
	best := e.WM.byClass[p.Class]
	for _, t := range p.tests {
		if len(best) <= 2 {
			break // already narrow; further hashing costs more than it saves
		}
		var key any
		switch t.kind {
		case testEq:
			key = t.val
		case testBind:
			v, bound := b.get(t.vari)
			if !bound {
				continue
			}
			key = v
		default:
			continue
		}
		if set := e.WM.lookup(p.Class, t.attr, key); len(set) < len(best) {
			best = set
		}
	}
	return best
}
