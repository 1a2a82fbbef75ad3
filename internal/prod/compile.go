package prod

// LHS compilation: at AddRule time every pattern's interpreted test list
// is lowered into three closure sets, so the Rete hot paths execute no
// testKind switches:
//
//   - alpha specs — per-element constant tests (Eq/Neq/Absent/Present/
//     Pred, plus same-element variable reoccurrence lowered to an
//     attribute-equality test). These are interned network-wide so each
//     distinct test is evaluated at most once per element change no
//     matter how many rules use it (alpha.go).
//   - join closures — tests against variables bound by earlier patterns,
//     executed at the pattern's beta node against the partial-match token.
//   - projections — variable slots this pattern binds, written into the
//     token's binding vector when a join succeeds.
//
// Variable slots are assigned in first-positive-occurrence order (pattern
// order, then test order), which is exactly the order the interpreted
// matcher pushes bindings onto its trail. Matches from both matchers
// therefore carry identical binding vectors, and journal Firing records
// stay byte-identical whichever matcher produced the match.

// alphaKind discriminates the interned constant-test nodes.
type alphaKind uint8

const (
	aEq      alphaKind = iota // attr present and == val
	aNeq                      // attr absent or != val
	aAbsent                   // attr absent
	aPresent                  // attr present
	aPred                     // attr present and predicate holds (never shared)
	aVarEq                    // both attrs present and equal (same-element unification)
)

// alphaKey identifies a constant test for interning. WM attribute values
// are guaranteed comparable (checkAttrValue), so the key is comparable.
// Predicate tests carry an interning serial instead of appearing here:
// two closures with the same code pointer can capture different state, so
// predicates are never deduplicated.
type alphaKey struct {
	kind  alphaKind
	attr  string
	attr2 string // aVarEq second attribute (lexicographically ordered)
	val   any
}

// alphaSpec is one compiled constant test as emitted by the compiler,
// before interning.
type alphaSpec struct {
	key  alphaKey
	pred func(any) bool // aPred only
}

// compile builds the element-test closure for a spec. Called once per
// interned test, not per rule.
func (s alphaSpec) compile() func(*Element) bool {
	attr := s.key.attr
	switch s.key.kind {
	case aEq:
		val := s.key.val
		return func(e *Element) bool { v, ok := e.lookup(attr); return ok && v == val }
	case aNeq:
		val := s.key.val
		return func(e *Element) bool { v, ok := e.lookup(attr); return !ok || v != val }
	case aAbsent:
		return func(e *Element) bool { _, ok := e.lookup(attr); return !ok }
	case aPresent:
		return func(e *Element) bool { _, ok := e.lookup(attr); return ok }
	case aPred:
		pred := s.pred
		return func(e *Element) bool { v, ok := e.lookup(attr); return ok && pred(v) }
	case aVarEq:
		attr2 := s.key.attr2
		return func(e *Element) bool {
			v1, ok1 := e.lookup(attr)
			v2, ok2 := e.lookup(attr2)
			return ok1 && ok2 && v1 == v2
		}
	}
	panic("prod: unknown alpha kind")
}

// joinFn tests an element against the bindings accumulated by earlier
// patterns' tokens.
type joinFn func(binds []any, el *Element) bool

// projSpec writes one newly bound variable into a token's binding vector.
type projSpec struct {
	slot int
	attr string
}

// compiledPat is one pattern lowered for the network.
type compiledPat struct {
	class   string
	negated bool
	alphas  []alphaSpec
	joins   []joinFn
	projs   []projSpec
	// attrs this pattern's joins and projections read from the element;
	// a Modify that changes none of them (and none of the alpha-test
	// attributes, handled by the alpha layer) cannot affect this node.
	attrs []string
	// hashSlot/hashAttr describe the first join — always an equality
	// between an element attribute and an earlier slot — so the beta node
	// can probe hash indexes instead of scanning memories and token lists.
	// hashSlot is -1 for join-free (cross-product) nodes.
	hashSlot int
	hashAttr string
}

// compiledRule is a rule's full lowered LHS.
type compiledRule struct {
	slotNames []string // variable names in slot order (== trail order)
	pats      []compiledPat
	positives int
}

// compileRule lowers a rule's patterns. Patterns must already be
// finalized (AddRule does this on its private copy).
func compileRule(r *Rule) *compiledRule {
	cr := &compiledRule{}
	slot := map[string]int{} // variable name -> slot, first positive occurrence
	for _, p := range r.Patterns {
		cp := compiledPat{class: p.Class, negated: p.Negated, hashSlot: -1}
		local := map[string]string{} // variable -> attr bound earlier in THIS pattern
		for _, t := range p.tests {
			switch t.kind {
			case testEq:
				cp.alphas = append(cp.alphas, alphaSpec{key: alphaKey{kind: aEq, attr: t.attr, val: t.val}})
			case testNeq:
				cp.alphas = append(cp.alphas, alphaSpec{key: alphaKey{kind: aNeq, attr: t.attr, val: t.val}})
			case testAbsent:
				cp.alphas = append(cp.alphas, alphaSpec{key: alphaKey{kind: aAbsent, attr: t.attr}})
			case testPresent:
				cp.alphas = append(cp.alphas, alphaSpec{key: alphaKey{kind: aPresent, attr: t.attr}})
			case testPred:
				cp.alphas = append(cp.alphas, alphaSpec{key: alphaKey{kind: aPred, attr: t.attr}, pred: t.pred})
			case testBind:
				// Every Bind requires presence, whatever else it compiles to.
				cp.alphas = append(cp.alphas, alphaSpec{key: alphaKey{kind: aPresent, attr: t.attr}})
				if prev, ok := local[t.vari]; ok {
					// Reoccurrence within the same pattern: an intra-element
					// equality is a constant test, not a join.
					a1, a2 := prev, t.attr
					if a2 < a1 {
						a1, a2 = a2, a1
					}
					cp.alphas = append(cp.alphas, alphaSpec{key: alphaKey{kind: aVarEq, attr: a1, attr2: a2}})
					continue
				}
				if s, ok := slot[t.vari]; ok {
					// Bound by an earlier pattern: a real beta join test.
					if cp.hashSlot < 0 {
						cp.hashSlot = s
						cp.hashAttr = t.attr
					}
					cp.joins = append(cp.joins, compileJoin(s, t.attr))
					cp.attrs = append(cp.attrs, t.attr)
					local[t.vari] = t.attr
					continue
				}
				local[t.vari] = t.attr
				if p.Negated {
					// Fresh variable in a negated pattern: existentially
					// quantified, never visible to the action — presence
					// (already emitted) is its whole meaning.
					continue
				}
				s := len(cr.slotNames)
				slot[t.vari] = s
				cr.slotNames = append(cr.slotNames, t.vari)
				cp.projs = append(cp.projs, projSpec{slot: s, attr: t.attr})
				cp.attrs = append(cp.attrs, t.attr)
			}
		}
		if !p.Negated {
			cr.positives++
		}
		cr.pats = append(cr.pats, cp)
	}
	return cr
}

// compileJoin builds the closure testing an element attribute against a
// previously bound slot.
func compileJoin(slot int, attr string) joinFn {
	return func(binds []any, el *Element) bool {
		v, ok := el.lookup(attr)
		return ok && v == binds[slot]
	}
}
