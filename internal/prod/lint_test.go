package prod

import (
	"strings"
	"testing"
)

func noopAction(tx *Tx, m *Match) {}

func TestLintRulesDefective(t *testing.T) {
	cases := []struct {
		name  string
		rules []*Rule
		// wantCodes and wantMsgs pair up: finding i must carry code i and
		// contain substring i.
		wantCodes []string
		wantMsgs  []string
	}{
		{
			name: "clean rule",
			rules: []*Rule{{
				Name: "bind-op",
				Patterns: []Pattern{
					P("op").Eq("kind", "add").Absent("bound").Bind("class", "c"),
					P("unit").Eq("class", "arith"),
					N("op").Eq("class", "arith").Absent("bound").Eq("kind", "sub"),
				},
				Action: noopAction,
			}},
		},
		{
			name: "variable exported from negated pattern",
			rules: []*Rule{{
				Name: "neg-export",
				Patterns: []Pattern{
					P("op").Eq("kind", "add"),
					N("unit").Bind("class", "c"),
					P("op").Bind("class", "c"),
				},
				Action: noopAction,
			}},
			wantCodes: []string{LintUnboundVariable},
			wantMsgs:  []string{`variable "c" is first bound in negated pattern 1 and used in pattern 2`},
		},
		{
			name: "dead alpha: two different Eq values",
			rules: []*Rule{{
				Name:     "never-eq",
				Patterns: []Pattern{P("op").Eq("kind", "add").Eq("kind", "sub")},
				Action:   noopAction,
			}},
			wantCodes: []string{LintDeadAlpha},
			wantMsgs:  []string{"kind == add and kind == sub"},
		},
		{
			name: "dead alpha: absent vs present",
			rules: []*Rule{{
				Name:     "never-present",
				Patterns: []Pattern{P("op").Absent("bound").Bind("bound", "b")},
				Action:   noopAction,
			}},
			wantCodes: []string{LintDeadAlpha},
			wantMsgs:  []string{"bound to be absent and present"},
		},
		{
			name: "dead alpha: absent vs Eq",
			rules: []*Rule{{
				Name:     "never-absent-eq",
				Patterns: []Pattern{P("op").Absent("kind").Eq("kind", "add")},
				Action:   noopAction,
			}},
			wantCodes: []string{LintDeadAlpha},
			wantMsgs:  []string{"kind to be absent and to equal add"},
		},
		{
			name: "shadowed LHS",
			rules: []*Rule{
				{
					Name:     "original",
					Patterns: []Pattern{P("op").Eq("kind", "add").Absent("bound")},
					Action:   noopAction,
				},
				{
					Name:     "copy-paste",
					Patterns: []Pattern{P("op").Eq("kind", "add").Absent("bound")},
					Action:   noopAction,
				},
			},
			wantCodes: []string{LintShadowedLHS},
			wantMsgs:  []string{`identical to earlier rule "original" (index 0)`},
		},
		{
			name: "where-guarded twins are not shadowing",
			rules: []*Rule{
				{
					Name:     "guarded-a",
					Patterns: []Pattern{P("op").Eq("kind", "add")},
					Where:    func(Host, *Match) bool { return true },
					Action:   noopAction,
				},
				{
					Name:     "guarded-b",
					Patterns: []Pattern{P("op").Eq("kind", "add")},
					Where:    func(Host, *Match) bool { return false },
					Action:   noopAction,
				},
			},
		},
		{
			name: "negated join against positive binding is fine",
			rules: []*Rule{{
				Name: "neg-join",
				Patterns: []Pattern{
					P("op").Bind("class", "c"),
					N("unit").Bind("class", "c"),
				},
				Action: noopAction,
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(NewWM(testSchema))
			for _, r := range tc.rules {
				eng.AddRule(r)
			}
			got := eng.LintRules()
			if len(got) != len(tc.wantCodes) {
				t.Fatalf("got %d findings %v, want %d", len(got), got, len(tc.wantCodes))
			}
			for i, f := range got {
				if f.Code != tc.wantCodes[i] {
					t.Errorf("finding %d: code %q, want %q (%s)", i, f.Code, tc.wantCodes[i], f)
				}
				if !strings.Contains(f.Msg, tc.wantMsgs[i]) {
					t.Errorf("finding %d: message %q does not contain %q", i, f.Msg, tc.wantMsgs[i])
				}
			}
		})
	}
}

func TestRuleFindingString(t *testing.T) {
	f := RuleFinding{Rule: "r", Index: 3, Code: LintDeadAlpha, Msg: "boom"}
	want := `rule "r": dead-alpha: boom`
	if f.String() != want {
		t.Fatalf("String() = %q, want %q", f.String(), want)
	}
}
