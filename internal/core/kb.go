package core

import (
	"fmt"

	"repro/internal/prod"
)

// Phase is one phase of the DAA's knowledge base: its rules, the
// working-memory vocabulary its seeder and actions create (class ->
// attributes), and the host code that seeds its working memory and
// finishes the design after its rules quiesce.
//
// The schema is the phase's working-memory declaration: synthesis, replay
// and the rule lint each build the phase's memory from it, so the
// attribute slots follow its order, and a seeder, action or rule that
// names a class or attribute it does not declare panics, naming the
// name. Renaming a class or attribute in a seeder without updating the
// schema and the rules (or the other way round) therefore fails every
// synthesis instead of silently producing rules that never match.
type Phase struct {
	Name   string
	Rules  []*prod.Rule
	Schema *prod.Schema

	seed  func(*synth, *prod.WM)
	post  func(*synth) error         // nil: nothing to finish
	skip  func(Options) bool         // nil: the phase always runs
	extra func(Options) []*prod.Rule // nil: no rules join from Options
}

// knowledgeBase is the rule base, one entry per phase in execution order.
// It is built once per process and shared by every synthesis: rules reach
// the synthesis state through the engine's Host (the *synth), never
// through a captured pointer. Each rule's Category names its phase.
var knowledgeBase = categorize([]Phase{
	{
		Name:  "trace",
		Rules: traceRules,
		Schema: &prod.Schema{Classes: map[string][]string{
			"top": {"op", "kind"},
		}},
		seed: (*synth).seedTrace,
		post: (*synth).finishTrace,
		skip: func(o Options) bool { return o.DisableTraceRules },
	},
	{
		Name:  "data-memory",
		Rules: dataMemoryRules,
		Schema: &prod.Schema{Classes: map[string][]string{
			"carrier": {"car", "kind", "bound"},
		}},
		seed: (*synth).seedDataMemory,
	},
	{
		Name:  "control",
		Rules: controlRules,
		Schema: &prod.Schema{Classes: map[string][]string{
			"op":   {"op", "body", "seq", "class"},
			"body": {"body", "cursor", "count"},
		}},
		seed: (*synth).seedControl,
		post: (*synth).finishControl,
	},
	{
		Name:  "operators",
		Rules: operatorRules,
		Schema: &prod.Schema{Classes: map[string][]string{
			"op":   {"op", "kind", "class", "width", "bound"},
			"unit": {"unit", "kind", "class"},
		}},
		seed: (*synth).seedOperators,
	},
	{
		Name:  "values",
		Rules: valueRules,
		Schema: &prod.Schema{Classes: map[string][]string{
			"value": {"val", "body", "lo", "hi", "width", "bound"},
			"track": {"reg", "body", "hi"},
		}},
		seed: (*synth).seedValues,
	},
	{
		Name:  "datapath",
		Rules: datapathRules,
		Schema: &prod.Schema{Classes: map[string][]string{
			"task":     {"op", "class", "commutative", "routed"},
			"park":     {"val", "routed"},
			"constant": {"value", "width", "done"},
		}},
		seed: (*synth).seedDatapath,
	},
	{
		Name:  "cleanup",
		Rules: cleanupRules,
		Schema: &prod.Schema{Classes: map[string][]string{
			"hreg": {"reg", "width"},
			"unit": {"unit", "class"},
		}},
		seed:  (*synth).seedCleanup,
		post:  (*synth).finishCleanup,
		skip:  func(o Options) bool { return o.DisableCleanup },
		extra: func(o Options) []*prod.Rule { return o.ExtraRules },
	},
})

// categorize files every rule under the phase that lists it.
func categorize(kb []Phase) []Phase {
	for _, ph := range kb {
		for _, r := range ph.Rules {
			r.Category = ph.Name
		}
	}
	return kb
}

// KnowledgeBase returns the rule base, one Phase per synthesis phase in
// execution order, for the knowledge-base inventory (experiment E1), the
// rule lint and the provenance tables. The table is shared by every
// synthesis in the process: callers must not modify it or its rules.
func KnowledgeBase() []Phase { return knowledgeBase }

// phaseIndex returns the execution position of the named phase, or
// len(knowledgeBase) for a name outside the knowledge base.
func phaseIndex(name string) int {
	for i := range knowledgeBase {
		if knowledgeBase[i].Name == name {
			return i
		}
	}
	return len(knowledgeBase)
}

// KBFinding is one rule-lint finding, tagged with the phase whose engine
// the rule is registered in.
type KBFinding struct {
	Phase   string
	Finding prod.RuleFinding
}

func (f KBFinding) String() string {
	return fmt.Sprintf("%s: %s", f.Phase, f.Finding)
}

// LintKnowledgeBase registers each phase's rules in a fresh engine over
// that phase's declared working memory and statically lints them.
// Findings come back in phase execution order, then rule registration
// order. A clean rule base returns nil.
func LintKnowledgeBase() []KBFinding {
	var out []KBFinding
	for _, ph := range knowledgeBase {
		eng := prod.NewEngine(prod.NewWM(ph.Schema))
		for _, r := range ph.Rules {
			eng.AddRule(r)
		}
		for _, f := range eng.LintRules() {
			out = append(out, KBFinding{Phase: ph.Name, Finding: f})
		}
	}
	return out
}
