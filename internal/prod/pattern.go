package prod

import "fmt"

// testKind enumerates the condition tests a pattern can apply.
type testKind int

const (
	testEq      testKind = iota // attribute equals a constant
	testNeq                     // attribute differs from a constant
	testBind                    // bind attribute to a variable (unifies)
	testAbsent                  // attribute absent
	testPresent                 // attribute present
	testPred                    // attribute satisfies a predicate
)

type test struct {
	kind testKind
	attr string
	val  any
	vari string
	pred func(any) bool
}

// testNode is one link in the builder's persistent test list. Pattern is a
// value type and builder chains may branch off a shared prefix, so the
// fluent methods cannot append into a shared slice; instead each call
// prepends one immutable node in O(1) and AddRule flattens the list once
// into the tests slice the matchers iterate. The DAA's 48 rules build a
// few hundred tests at startup, and before this representation every
// builder call re-copied its whole prefix (O(n²) per pattern).
type testNode struct {
	prev *testNode
	t    test
}

// Pattern matches one working-memory element of a given class, subject to
// attribute tests. Patterns are value types built fluently:
//
//	prod.P("op").Eq("kind", "add").Bind("op", "o").Absent("unit")
//
// A variable bound by one pattern unifies with later occurrences in the
// same rule, exactly as OPS5 pattern variables did.
type Pattern struct {
	Class   string
	Negated bool

	chain *testNode // builder accumulation, newest first
	n     int       // tests in chain
	tests []test    // flattened by finalize (AddRule time)
}

// P starts a positive pattern on a class.
func P(class string) Pattern { return Pattern{Class: class} }

// N starts a negated pattern: the rule matches only if no element of this
// class satisfies the tests under the current bindings.
func N(class string) Pattern { return Pattern{Class: class, Negated: true} }

func (p Pattern) add(t test) Pattern {
	p.chain = &testNode{prev: p.chain, t: t}
	p.n++
	p.tests = nil
	return p
}

// Eq requires attr to equal the constant v.
func (p Pattern) Eq(attr string, v any) Pattern {
	return p.add(test{kind: testEq, attr: attr, val: v})
}

// Neq requires attr to differ from the constant v (absent attributes differ).
func (p Pattern) Neq(attr string, v any) Pattern {
	return p.add(test{kind: testNeq, attr: attr, val: v})
}

// Bind unifies attr with the named variable: the first occurrence binds it,
// later occurrences must match. The attribute must be present.
func (p Pattern) Bind(attr, variable string) Pattern {
	return p.add(test{kind: testBind, attr: attr, vari: variable})
}

// Absent requires attr to be missing.
func (p Pattern) Absent(attr string) Pattern {
	return p.add(test{kind: testAbsent, attr: attr})
}

// Present requires attr to be present.
func (p Pattern) Present(attr string) Pattern {
	return p.add(test{kind: testPresent, attr: attr})
}

// Pred requires attr to be present and satisfy f.
func (p Pattern) Pred(attr string, f func(any) bool) Pattern {
	return p.add(test{kind: testPred, attr: attr, pred: f})
}

// finalize flattens the builder list into the tests slice, in call order.
// Idempotent; AddRule finalizes its private copy of each pattern, so the
// matchers only ever see flattened patterns.
func (p *Pattern) finalize() {
	if p.tests != nil || p.n == 0 {
		return
	}
	p.tests = make([]test, p.n)
	i := p.n
	for n := p.chain; n != nil; n = n.prev {
		i--
		p.tests[i] = n.t
	}
}

// specificity counts the tests contributed to conflict resolution.
func (p Pattern) specificity() int { return p.n + 1 } // +1 for the class test

// match checks the pattern against an element under the mutable binding
// environment. On success any new variables remain bound; the caller
// restores the environment to the returned mark when backtracking. It is
// the interpreted test path used by the exhaustive matcher; the Rete
// network compiles the same tests to closures instead (compile.go).
func (p Pattern) match(e *Element, b *bindings) (mark int, ok bool) {
	mark = b.mark()
	if e.Class != p.Class {
		return mark, false
	}
	for _, t := range p.tests {
		v, present := e.lookup(t.attr)
		switch t.kind {
		case testEq:
			if !present || v != t.val {
				b.undo(mark)
				return mark, false
			}
		case testNeq:
			if present && v == t.val {
				b.undo(mark)
				return mark, false
			}
		case testBind:
			if !present {
				b.undo(mark)
				return mark, false
			}
			if bound, has := b.get(t.vari); has {
				if bound != v {
					b.undo(mark)
					return mark, false
				}
			} else {
				b.push(t.vari, v)
			}
		case testAbsent:
			if present {
				b.undo(mark)
				return mark, false
			}
		case testPresent:
			if !present {
				b.undo(mark)
				return mark, false
			}
		case testPred:
			if !present || !t.pred(v) {
				b.undo(mark)
				return mark, false
			}
		}
	}
	return mark, true
}

// bindings is a mutable variable environment with trail-based undo: binds
// push, backtracking truncates. This keeps the interpreted matchers
// allocation-free on failed candidates, which dominate the join work.
type bindings struct {
	names []string
	vals  []any
}

func (b *bindings) get(name string) (any, bool) {
	for i, n := range b.names {
		if n == name {
			return b.vals[i], true
		}
	}
	return nil, false
}

func (b *bindings) push(name string, v any) {
	b.names = append(b.names, name)
	b.vals = append(b.vals, v)
}

func (b *bindings) mark() int { return len(b.names) }

func (b *bindings) undo(mark int) {
	b.names = b.names[:mark]
	b.vals = b.vals[:mark]
}

// snapshot copies the environment for storage in a Match.
func (b *bindings) snapshot() bindings {
	return bindings{
		names: append([]string(nil), b.names...),
		vals:  append([]any(nil), b.vals...),
	}
}

// Match is one instantiation in the conflict set: the rule plus the
// elements matched by its positive patterns and the variable bindings.
type Match struct {
	Rule     *Rule
	Elements []*Element // one per positive pattern, in pattern order
	binds    bindings

	// tok back-links a Rete-produced match to its production-node token so
	// retraction can remove it from the conflict set in O(1). Nil for
	// matches produced by the interpreted matchers.
	tok *token
}

// El returns the element matched by the i-th positive pattern.
func (m *Match) El(i int) *Element { return m.Elements[i] }

// Get returns the value bound to a pattern variable; it panics on unbound
// variables, which always indicates a rule-authoring bug.
func (m *Match) Get(name string) any {
	v, ok := m.binds.get(name)
	if !ok {
		panic(fmt.Sprintf("prod: rule %s: unbound variable %q", m.Rule.Name, name))
	}
	return v
}

// Int returns a variable as int.
func (m *Match) Int(name string) int { return m.Get(name).(int) }

// Str returns a variable as string.
func (m *Match) Str(name string) string { return m.Get(name).(string) }
