package core

import (
	"strings"
	"testing"

	"repro/internal/prod"
)

// The golden property the CI lint-rules job asserts: the full embedded
// rule base registers over its per-phase working-memory declarations and
// lints clean.
func TestKnowledgeBaseLintsClean(t *testing.T) {
	if findings := LintKnowledgeBase(); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("%s", f)
		}
		t.Fatalf("rule base has %d lint findings", len(findings))
	}
	total := 0
	for _, ph := range KnowledgeBase() {
		total += len(ph.Rules)
	}
	if total != 48 {
		t.Fatalf("knowledge base has %d rules, want 48 (update this count and the schemas together)", total)
	}
}

func TestPhaseSchemasCoverEveryPhase(t *testing.T) {
	seen := map[string]bool{}
	for _, ph := range KnowledgeBase() {
		if seen[ph.Name] {
			t.Errorf("phase %q listed twice", ph.Name)
		}
		seen[ph.Name] = true
		if ph.Schema == nil {
			t.Errorf("phase %q has no schema", ph.Name)
			continue
		}
		if len(ph.Schema.Classes) == 0 {
			t.Errorf("phase %q schema declares no classes", ph.Name)
		}
	}
	if phaseIndex("no-such-phase") != len(KnowledgeBase()) {
		t.Error("an unknown phase should sort after every phase of the knowledge base")
	}
}

// phaseNamed returns the knowledge base's entry for the named phase.
func phaseNamed(t *testing.T, name string) Phase {
	t.Helper()
	i := phaseIndex(name)
	if i == len(KnowledgeBase()) {
		t.Fatalf("no phase %q in the knowledge base", name)
	}
	return KnowledgeBase()[i]
}

// The schema is the working memory's declaration: registering the
// data-memory rules over a carrier declaration that drops "bound", as a
// renamed Modify attribute would, panics at the first rule testing it.
// This is how seeder/rule vocabulary drift fails every synthesis.
func TestLintCatchesSchemaDrift(t *testing.T) {
	drifted := &prod.Schema{Classes: map[string][]string{
		// The real schema is {"car", "kind", "bound"}.
		"carrier": {"car", "kind"},
	}}
	eng := prod.NewEngine(prod.NewWM(drifted))
	defer func() {
		msg, _ := recover().(string)
		const want = "rule allocate-register-for-carrier: pattern 0 tests ^bound, which class carrier does not declare"
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one containing %q", msg, want)
		}
	}()
	for _, r := range phaseNamed(t, "data-memory").Rules {
		eng.AddRule(r)
	}
	t.Error("rules testing ^bound registered over a schema without it")
}

// A deliberately defective rule injected next to the real rule base is
// flagged with the expected message, end to end through KB-style linting.
func TestLintFlagsInjectedDefectiveRule(t *testing.T) {
	dm := phaseNamed(t, "data-memory")
	eng := prod.NewEngine(prod.NewWM(dm.Schema))
	for _, r := range dm.Rules {
		eng.AddRule(r)
	}
	eng.AddRule(&prod.Rule{
		Name:     "dead-carrier-probe",
		Category: "data-memory",
		Patterns: []prod.Pattern{
			prod.P("carrier").Eq("kind", "reg").Eq("kind", "mem"),
		},
		Action: func(tx *prod.Tx, m *prod.Match) {},
	})
	findings := eng.LintRules()
	if len(findings) != 1 {
		t.Fatalf("got %d findings %v, want exactly the injected dead-alpha", len(findings), findings)
	}
	f := findings[0]
	if f.Rule != "dead-carrier-probe" || f.Code != prod.LintDeadAlpha {
		t.Fatalf("unexpected finding %s", f)
	}
}
