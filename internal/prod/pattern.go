package prod

import "fmt"

// testKind enumerates the condition tests a pattern can apply.
type testKind int

const (
	testEq     testKind = iota // attribute equals a constant
	testBind                   // bind attribute to a variable (unifies)
	testAbsent                 // attribute absent
)

type test struct {
	kind testKind
	attr string
	val  any
	vari string
}

// Pattern matches one working-memory element of a given class, subject to
// attribute tests. Patterns are value types built fluently:
//
//	prod.P("op").Eq("kind", "add").Bind("op", "o").Absent("unit")
//
// Each builder call returns a pattern with a fresh copy of the test list,
// so a built pattern is final: chains may branch off a shared prefix, and
// one rule value serves every engine (AddRule compiles it as it is).
//
// A variable bound by one pattern unifies with later occurrences in the
// same rule, exactly as OPS5 pattern variables did.
type Pattern struct {
	Class   string
	Negated bool

	tests []test // in builder-call order
}

// P starts a positive pattern on a class.
func P(class string) Pattern { return Pattern{Class: class} }

// N starts a negated pattern: the rule matches only if no element of this
// class satisfies the tests under the current bindings.
func N(class string) Pattern { return Pattern{Class: class, Negated: true} }

// add returns p with t appended to a copy of its tests: capping the
// prefix at its length makes append copy, so no two patterns share one.
func (p Pattern) add(t test) Pattern {
	p.tests = append(p.tests[:len(p.tests):len(p.tests)], t)
	return p
}

// Eq requires attr to equal the constant v.
func (p Pattern) Eq(attr string, v any) Pattern {
	return p.add(test{kind: testEq, attr: attr, val: v})
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

// specificity counts the tests contributed to conflict resolution.
func (p Pattern) specificity() int { return len(p.tests) + 1 } // +1 for the class test

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
		v := e.Get(t.attr)
		present := v != nil
		switch t.kind {
		case testEq:
			if !present || v != t.val {
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

	// tok back-links a Rete-produced match to its production-node token,
	// whose chain carries the time tags it was queued under; queued marks
	// it as on the agenda, and spent as fired under its current time tags
	// (agenda.go). Nil and false for exhaustive matches.
	tok    *token
	queued bool
	spent  bool
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
