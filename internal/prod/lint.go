package prod

import (
	"fmt"
	"sort"
)

// Rule-lint finding codes.
const (
	LintUnboundVariable = "unbound-variable" // variable exported from a negated pattern
	LintDeadAlpha       = "dead-alpha"       // contradictory tests: the pattern can never match
	LintShadowedLHS     = "shadowed-lhs"     // identical LHS registered earlier
)

// RuleFinding is one static-analysis finding about a registered rule.
type RuleFinding struct {
	Rule  string // rule name
	Index int    // registration order in the engine
	Code  string // one of the Lint* codes
	Msg   string
}

func (f RuleFinding) String() string {
	return fmt.Sprintf("rule %q: %s: %s", f.Rule, f.Code, f.Msg)
}

// LintRules statically analyzes the engine's compiled rule set without
// firing anything. Vocabulary needs no lint: AddRule already refused any
// pattern naming a class or attribute the working memory's schema does
// not declare. Findings are ordered by registration index, then code.
//
// The checks:
//
//   - unbound-variable: a pattern variable's first binding occurs inside
//     a negated pattern and the variable is used again later. Negated
//     patterns assert absence — they cannot export bindings, so the later
//     use never unifies and the rule never fires (or Match.Get panics).
//   - dead-alpha: one pattern carries contradictory constant tests (two
//     different Eq values, or Absent combined with an Eq or a Bind, which
//     require presence), so its alpha test can never pass.
//   - shadowed-lhs: a rule's LHS is structurally identical to an earlier
//     rule's (classes, negation, tests) and neither carries a Where join;
//     the pair fires on exactly the same instantiations, which almost
//     always means a copy-paste error.
func (e *Engine) LintRules() []RuleFinding {
	var out []RuleFinding
	for _, r := range e.rules {
		out = append(out, lintRule(r)...)
	}
	out = append(out, lintShadowing(e.rules)...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// lintRule runs the per-rule checks over one rule's patterns.
func lintRule(r *Rule) []RuleFinding {
	var out []RuleFinding
	report := func(code, format string, args ...any) {
		out = append(out, RuleFinding{Rule: r.Name, Index: r.index, Code: code, Msg: fmt.Sprintf(format, args...)})
	}

	// negBound tracks variables whose first binding sits in a negated
	// pattern; bound tracks variables bound by positive patterns.
	bound := map[string]bool{}
	negBound := map[string]int{} // variable -> pattern index of the negated first binding
	for pi, p := range r.Patterns {
		for _, t := range p.tests {
			if t.kind != testBind {
				continue
			}
			if bound[t.vari] {
				continue // join against an earlier positive binding
			}
			if npi, ok := negBound[t.vari]; ok {
				report(LintUnboundVariable,
					"variable %q is first bound in negated pattern %d and used in pattern %d; negated patterns cannot export bindings", t.vari, npi, pi)
				continue
			}
			if p.Negated {
				negBound[t.vari] = pi
			} else {
				bound[t.vari] = true
			}
		}

		out = append(out, lintDeadAlpha(r, pi, p)...)
	}
	return out
}

// lintDeadAlpha reports contradictory constant tests within one pattern.
func lintDeadAlpha(r *Rule, pi int, p Pattern) []RuleFinding {
	var out []RuleFinding
	report := func(format string, args ...any) {
		out = append(out, RuleFinding{Rule: r.Name, Index: r.index, Code: LintDeadAlpha, Msg: fmt.Sprintf(format, args...)})
	}
	eqVal := map[string]any{}
	absent := map[string]bool{}
	bound := map[string]bool{} // attributes a Bind requires present
	for _, t := range p.tests {
		switch t.kind {
		case testEq:
			if prev, ok := eqVal[t.attr]; ok && prev != t.val {
				report("pattern %d requires %s == %v and %s == %v; no element satisfies both", pi, t.attr, prev, t.attr, t.val)
			}
			eqVal[t.attr] = t.val
		case testAbsent:
			absent[t.attr] = true
		case testBind:
			bound[t.attr] = true
		}
	}
	absentAttrs := make([]string, 0, len(absent))
	for attr := range absent {
		absentAttrs = append(absentAttrs, attr)
	}
	sort.Strings(absentAttrs)
	for _, attr := range absentAttrs {
		if _, ok := eqVal[attr]; ok {
			report("pattern %d requires %s to be absent and to equal %v", pi, attr, eqVal[attr])
		} else if bound[attr] {
			report("pattern %d requires %s to be absent and present", pi, attr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Msg < out[j].Msg })
	return out
}

// lintShadowing reports rules whose LHS duplicates an earlier rule's.
func lintShadowing(rules []*Rule) []RuleFinding {
	var out []RuleFinding
	for i, r := range rules {
		if r.Where != nil {
			continue // invisible extra join: not comparable
		}
		for _, prev := range rules[:i] {
			if prev.Where != nil {
				continue
			}
			if sameLHS(r, prev) {
				out = append(out, RuleFinding{
					Rule: r.Name, Index: r.index, Code: LintShadowedLHS,
					Msg: fmt.Sprintf("LHS is identical to earlier rule %q (index %d); both fire on exactly the same instantiations", prev.Name, prev.index),
				})
				break
			}
		}
	}
	return out
}

// sameLHS reports whether two rules have structurally identical pattern
// lists.
func sameLHS(a, b *Rule) bool {
	if len(a.Patterns) != len(b.Patterns) {
		return false
	}
	for i := range a.Patterns {
		pa, pb := a.Patterns[i], b.Patterns[i]
		if pa.Class != pb.Class || pa.Negated != pb.Negated || len(pa.tests) != len(pb.tests) {
			return false
		}
		for j := range pa.tests {
			ta, tb := pa.tests[j], pb.tests[j]
			if ta != tb {
				return false
			}
		}
	}
	return true
}
