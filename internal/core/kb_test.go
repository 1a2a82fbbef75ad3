package core

import (
	"testing"

	"repro/internal/prod"
)

// The golden property the CI lint-rules job asserts: the full embedded
// rule base lints clean against the per-phase working-memory schemas.
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

// Removing one attribute from a schema must surface every rule that
// tests it — this is how seeder/rule vocabulary drift fails the gate.
func TestLintCatchesSchemaDrift(t *testing.T) {
	eng := prod.NewEngine(prod.NewWM())
	for _, r := range phaseNamed(t, "data-memory").Rules {
		eng.AddRule(r)
	}
	drifted := &prod.Schema{Classes: map[string][]string{
		// The real schema is {"car", "kind", "bound"}; drop "bound", as a
		// renamed Modify attribute would.
		"carrier": {"car", "kind"},
	}}
	findings := eng.LintRules(drifted)
	if len(findings) == 0 {
		t.Fatal("dropping \"bound\" from the carrier schema produced no findings")
	}
	for _, f := range findings {
		if f.Code != prod.LintUnknownAttr {
			t.Errorf("unexpected finding %s", f)
		}
	}
}

// A deliberately defective rule injected next to the real rule base is
// flagged with the expected message, end to end through KB-style linting.
func TestLintFlagsInjectedDefectiveRule(t *testing.T) {
	dm := phaseNamed(t, "data-memory")
	eng := prod.NewEngine(prod.NewWM())
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
	findings := eng.LintRules(dm.Schema)
	if len(findings) != 1 {
		t.Fatalf("got %d findings %v, want exactly the injected dead-alpha", len(findings), findings)
	}
	f := findings[0]
	if f.Rule != "dead-carrier-probe" || f.Code != prod.LintDeadAlpha {
		t.Fatalf("unexpected finding %s", f)
	}
}
