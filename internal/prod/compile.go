package prod

import "fmt"

// LHS compilation: at AddRule time every pattern's interpreted test list
// is lowered into three sets, so the Rete hot paths execute no testKind
// switches and look no attribute up by name:
//
//   - alpha specs — per-element constant tests (Eq, Absent, the presence
//     every Bind requires, and same-element variable reoccurrence lowered
//     to an attribute-equality test). These are interned network-wide so
//     each distinct test is evaluated at most once per element change no
//     matter how many rules use it (alpha.go).
//   - joins — tests against variables bound by earlier patterns, executed
//     at the pattern's beta node against the partial-match token.
//   - projections — variable slots this pattern binds, written into the
//     token's binding vector when a join succeeds.
//
// Every class and attribute a pattern names is looked up in the working
// memory's declared layouts (wm.go) as the rule compiles, so the specs,
// joins and projections carry the element slots they read, and a name the
// schema does not declare panics naming the rule.
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
	aAbsent                   // attr absent
	aPresent                  // attr present
	aVarEq                    // both attrs present and equal (same-element unification)
)

// alphaKey identifies a constant test for interning. WM attribute values
// are guaranteed comparable (checkAttrValue), so the key is comparable.
// The key names attributes, not slots: one test serves every class that
// tests the attribute alike, each memory supplying its class's slots
// (alphaMem.tests).
type alphaKey struct {
	kind  alphaKind
	attr  string
	attr2 string // aVarEq second attribute (lexicographically ordered)
	val   any
}

// alphaSpec is one compiled constant test as emitted by the compiler,
// before interning, with the slots of key.attr and key.attr2 in the
// pattern's class (slot2 is slot for single-attribute tests).
type alphaSpec struct {
	key         alphaKey
	slot, slot2 int
}

// newAlphaSpec resolves the slots a constant test reads in the pattern's
// class.
func newAlphaSpec(ps patSlots, k alphaKey) alphaSpec {
	s := alphaSpec{key: k, slot: ps.slot(k.attr)}
	s.slot2 = s.slot
	if k.kind == aVarEq {
		s.slot2 = ps.slot(k.attr2)
	}
	return s
}

// patSlots resolves the attributes pattern pi of rule r names in its
// class's declared layout.
type patSlots struct {
	r  *Rule
	pi int
	l  *layout
}

// slot returns attr's slot; an undeclared attribute panics, naming the
// rule, the pattern, the attribute and the class.
func (ps patSlots) slot(attr string) int {
	if s, ok := ps.l.slots[attr]; ok {
		return s
	}
	panic(fmt.Sprintf("prod: rule %s: pattern %d tests ^%s, which class %s does not declare", ps.r.Name, ps.pi, attr, ps.l.class))
}

// compile builds the value-test closure for a spec: it receives the values
// in the spec's slots, nil when absent. Called once per interned test, not
// per rule.
func (s alphaSpec) compile() func(v, w any) bool {
	switch s.key.kind {
	case aEq:
		val := s.key.val
		return func(v, _ any) bool { return v != nil && v == val }
	case aAbsent:
		return func(v, _ any) bool { return v == nil }
	case aPresent:
		return func(v, _ any) bool { return v != nil }
	case aVarEq:
		return func(v, w any) bool { return v != nil && v == w }
	}
	panic("prod: unknown alpha kind")
}

// joinSpec tests an element attribute (attr, an element slot) for
// equality with a variable bound by an earlier pattern (slot, a binding
// slot).
type joinSpec struct {
	slot int
	attr int
}

// projSpec writes one newly bound variable (slot) from an element
// attribute (attr, an element slot) into a token's binding vector.
type projSpec struct {
	slot int
	attr int
}

// compiledPat is one pattern lowered for the network.
type compiledPat struct {
	class   string
	negated bool
	alphas  []alphaSpec
	joins   []joinSpec
	projs   []projSpec
	// mask has a bit for each element slot this pattern's joins and
	// projections read; a Modify that changes none of them (and none of
	// the alpha-test attributes, handled by the alpha layer) cannot affect
	// this node.
	mask uint64
	// hashSlot/hashAttr describe the first join — always an equality
	// between an element attribute and an earlier slot — so the beta node
	// can probe hash indexes instead of scanning memories and token lists.
	// hashSlot is -1 for join-free (cross-product) nodes.
	hashSlot int
	hashAttr int
}

// compiledRule is a rule's full lowered LHS.
type compiledRule struct {
	slotNames []string // variable names in slot order (== trail order)
	pats      []compiledPat
	positives int
}

// compileRule lowers a rule's patterns, reading the slot of every
// attribute they name from wm's declared layouts; an undeclared class or
// attribute panics, naming the rule, the pattern and the name.
func compileRule(r *Rule, wm *WM) *compiledRule {
	cr := &compiledRule{}
	slot := map[string]int{} // variable name -> slot, first positive occurrence
	for pi, p := range r.Patterns {
		cp := compiledPat{class: p.Class, negated: p.Negated, hashSlot: -1}
		l := wm.layouts[p.Class]
		if l == nil {
			panic(fmt.Sprintf("prod: rule %s: pattern %d matches class %s, which is not declared", r.Name, pi, p.Class))
		}
		ps := patSlots{r: r, pi: pi, l: l}
		local := map[string]string{} // variable -> attr bound earlier in THIS pattern
		for _, t := range p.tests {
			switch t.kind {
			case testEq:
				cp.alphas = append(cp.alphas, newAlphaSpec(ps, alphaKey{kind: aEq, attr: t.attr, val: t.val}))
			case testAbsent:
				cp.alphas = append(cp.alphas, newAlphaSpec(ps, alphaKey{kind: aAbsent, attr: t.attr}))
			case testBind:
				// Every Bind requires presence, whatever else it compiles to.
				cp.alphas = append(cp.alphas, newAlphaSpec(ps, alphaKey{kind: aPresent, attr: t.attr}))
				if prev, ok := local[t.vari]; ok {
					// Reoccurrence within the same pattern: an intra-element
					// equality is a constant test, not a join.
					a1, a2 := prev, t.attr
					if a2 < a1 {
						a1, a2 = a2, a1
					}
					cp.alphas = append(cp.alphas, newAlphaSpec(ps, alphaKey{kind: aVarEq, attr: a1, attr2: a2}))
					continue
				}
				attr := ps.slot(t.attr)
				if s, ok := slot[t.vari]; ok {
					// Bound by an earlier pattern: a real beta join test.
					if cp.hashSlot < 0 {
						cp.hashSlot = s
						cp.hashAttr = attr
					}
					cp.joins = append(cp.joins, joinSpec{slot: s, attr: attr})
					cp.mask |= 1 << attr
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
				cp.projs = append(cp.projs, projSpec{slot: s, attr: attr})
				cp.mask |= 1 << attr
			}
		}
		if !p.Negated {
			cr.positives++
		}
		cr.pats = append(cr.pats, cp)
	}
	return cr
}
