package prod

// The exhaustive matcher re-enumerates every rule's instantiations from
// scratch: the original strategy, kept only as the reference leg of the
// CrossCheck lockstep and as the oracle the conflict-set property tests
// diff the Rete network against. Nothing it derives outlives a selection,
// and it charges nothing to the engine's metrics.

// selectExhaustive picks the next instantiation by re-enumerating every
// rule over the current working memory. The engine keeps one oracle, so
// each selection's index reuses the previous one's storage.
func (e *Engine) selectExhaustive() *Match {
	o := e.exhaustive()
	o.gen++
	var best *Match
	var bestRank recencyRank
	for _, r := range e.rules {
		o.enumerate(r, func(m *Match) {
			if r.Where != nil && !r.Where(e.Host, m) {
				return
			}
			if o.fired[refractionKey(m)] {
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

// oracle is the exhaustive matcher over a working memory. Its (class,
// attribute, value) index is rebuilt lazily for each selection, one
// (class, attribute) at a time, the first time a pattern could narrow its
// candidates with it, so working-memory updates never maintain it. fired
// is its own refraction record: the key of every instantiation the engine
// has fired since CrossCheck made the oracle.
type oracle struct {
	wm    *WM
	gen   uint64 // the current selection; bumped by the caller between selections
	idx   map[classAttr]*attrIndex
	fired map[refraction]bool
}

type classAttr struct{ class, attr string }

// attrIndex maps one (class, attribute)'s values to the elements holding
// them, as of selection gen.
type attrIndex struct {
	gen   uint64
	byVal map[any][]*Element
}

func newOracle(wm *WM) *oracle {
	return &oracle{wm: wm, gen: 1, idx: map[classAttr]*attrIndex{}, fired: map[refraction]bool{}}
}

// exhaustive returns the engine's oracle, made on first use.
func (e *Engine) exhaustive() *oracle {
	if e.oracle == nil {
		e.oracle = newOracle(e.WM)
	}
	return e.oracle
}

// lookup returns the live elements of class whose attr equals val.
func (o *oracle) lookup(class, attr string, val any) []*Element {
	k := classAttr{class, attr}
	ix := o.idx[k]
	if ix == nil {
		ix = &attrIndex{byVal: map[any][]*Element{}}
		o.idx[k] = ix
	}
	if ix.gen != o.gen {
		// Truncate rather than clear, so the buckets keep their storage.
		ix.gen = o.gen
		//daalint:allow detmap truncating every bucket is order-independent
		for v, els := range ix.byVal {
			ix.byVal[v] = els[:0]
		}
		for _, el := range o.wm.byClass[class] {
			if v := el.Get(attr); v != nil {
				ix.byVal[v] = append(ix.byVal[v], el)
			}
		}
	}
	return ix.byVal[val]
}

// enumerate yields every instantiation of r's patterns under the working
// memory, in deterministic candidate order, and returns the number of
// pattern tests it made. Where is *not* applied here: it is a per-cycle
// test, evaluated at selection time. Candidate elements per pattern come
// from the narrowest applicable index: an Eq test, or a Bind test whose
// variable is already bound, hashes directly to the matching elements; a
// negated pattern fails on its first matching candidate.
func (o *oracle) enumerate(r *Rule, yield func(*Match)) int {
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
		candidates := o.candidates(p, &env)
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
	return tested
}

// candidates returns the narrowest element set the indexes offer for a
// pattern under the current bindings.
func (o *oracle) candidates(p Pattern, b *bindings) []*Element {
	best := o.wm.byClass[p.Class]
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
		if set := o.lookup(p.Class, t.attr, key); len(set) < len(best) {
			best = set
		}
	}
	return best
}
