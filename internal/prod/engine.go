package prod

import (
	"fmt"
	"io"
	"strings"
)

// Rule is a production: a named left-hand side of patterns and a right-hand
// side action. Category is free-form and used for knowledge-base reporting
// (the DAA grouped rules by allocation phase).
type Rule struct {
	Name     string
	Category string
	Doc      string
	Patterns []Pattern
	// Where, when non-nil, is an extra join test over the full match. It is
	// re-evaluated on every cycle an instantiation is considered, so it may
	// read state outside working memory (the DAA rules consult the growing
	// RTL design); it must not mutate anything.
	Where func(*Match) bool
	// Action fires the rule. It receives a transaction handle: every
	// working-memory operation (make/modify/remove), halt, and registered
	// host effect (Tx.Do) goes through the Tx, which is how the effect
	// journal sees them.
	Action func(*Tx, *Match)

	index       int
	specificity int
	positives   int
}

// Specificity reports the number of condition tests on the rule's LHS
// (each pattern counts its class test plus its attribute tests).
func (r *Rule) Specificity() int {
	n := 0
	for _, p := range r.Patterns {
		n += p.specificity()
	}
	return n
}

// Engine runs a rule set to quiescence over a working memory.
//
// The matcher is a full Rete network (rete.go): rule LHSs are compiled at
// AddRule time into shared alpha constant tests and per-rule beta join
// chains with stored partial-match tokens, so each WM change reruns only
// the join work downstream of the memories it touched. Exhaustive swaps
// in the original strategy, re-matching everything every cycle
// (exhaustive.go). CrossCheck runs the two in lockstep and panics if they
// ever select a different instantiation, which is how the equivalence
// tests pin the network down. Conflict resolution is a total order over
// instantiations, so equal conflict sets force equal selections whichever
// matcher built them.
type Engine struct {
	WM    *WM
	rules []*Rule

	// MaxFirings bounds total rule firings as a runaway guard.
	MaxFirings int
	// Interrupt, when non-nil, is polled between recognize-act cycles; a
	// non-nil return stops the engine with that error. core wires it to
	// context.Context.Err so a hung or runaway rule set can be cancelled
	// or deadlined instead of spinning to the firing limit.
	Interrupt func() error
	// TraceWriter, when non-nil, receives one line per firing.
	TraceWriter io.Writer
	// Exhaustive recomputes every rule's instantiations on every cycle
	// (the pre-incremental behavior), for comparison and debugging.
	Exhaustive bool
	// CrossCheck runs the Rete network and the exhaustive matcher in
	// lockstep and panics on any divergence in the selected instantiation.
	// It is a verification mode: roughly the cost of both matchers.
	CrossCheck bool
	// Apply, when non-nil, executes registered host effects on behalf of
	// Tx.Do. Hosts install one dispatcher mapping effect names to appliers;
	// appliers must be pure applications of decisions already in the
	// arguments (no re-deciding), because replay re-invokes them verbatim.
	Apply func(name string, args []any) (any, error)

	halted     bool
	fired      map[refraction]bool
	firings    int
	cycles     int
	matchCalls int

	// pending buffers WM change notifications between cycles; seeded
	// flips after the first batch, whose changes describe the initial WM
	// that the network's first full match observes directly.
	pending []Change
	seeded  bool

	// rete is the match network; reteSynced tracks whether its state
	// reflects the live WM (it goes stale while Exhaustive drives the
	// engine, and resyncs on re-entry).
	rete       *rete
	reteSynced bool

	// Journal-recording state: jr is the journal being filled (nil when
	// recording is off), jrEnc the host value encoder, cur the firing
	// currently executing (working-memory changes outside a firing are
	// attributed to the seed).
	jr    *Journal
	jrEnc func(any) (Ref, bool)
	cur   *Firing

	met engineMetrics
}

// refraction keys an instantiation: a rule plus the identity *and recency*
// of the matched elements, so a modified element re-enables its rules, as
// in OPS5. Rules with more than four positive patterns fold the overflow
// into an FNV-1a hash so key construction never allocates.
type refraction struct {
	rule  int
	sig   [4]int64 // packed (id,time) pairs for up to the first 4 elements
	extra uint64   // FNV-1a over the packed pairs beyond the fourth
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewEngine returns an engine over wm with no rules. The engine observes
// wm from this point on; elements made before the first cycle are covered
// by the initial full match.
func NewEngine(wm *WM) *Engine {
	e := &Engine{
		WM:         wm,
		MaxFirings: 1_000_000,
		fired:      map[refraction]bool{},
		rete:       newRete(),
	}
	wm.Observe(func(c Change) {
		e.pending = append(e.pending, c)
		if e.jr != nil {
			e.recordChange(c)
		}
	})
	return e
}

// AddRule registers a rule. Registration order is the final conflict-
// resolution tiebreaker, so rule sets behave deterministically.
//
// Registration compiles the rule's LHS into the Rete network (compile.go).
// Pattern predicates (Pred) must be pure functions of the attribute value;
// join state that changes outside working memory belongs in Where, which
// is re-evaluated every cycle.
func (e *Engine) AddRule(r *Rule) {
	if r.Name == "" {
		panic("prod: rule without a name")
	}
	if r.Action == nil {
		panic(fmt.Sprintf("prod: rule %s has no action", r.Name))
	}
	if len(r.Patterns) == 0 {
		panic(fmt.Sprintf("prod: rule %s has no patterns", r.Name))
	}
	if r.Patterns[0].Negated {
		panic(fmt.Sprintf("prod: rule %s: first pattern must be positive", r.Name))
	}
	rc := *r
	rc.index = len(e.rules)
	// Rule values are shared across engines (and across goroutines when
	// the flow pool runs synthesis concurrently), so flatten the builder
	// chains on a private copy of the pattern slice.
	rc.Patterns = append([]Pattern(nil), r.Patterns...)
	for i := range rc.Patterns {
		rc.Patterns[i].finalize()
	}
	for _, p := range rc.Patterns {
		rc.specificity += p.specificity()
		if !p.Negated {
			rc.positives++
		}
	}
	e.rules = append(e.rules, &rc)
	e.met.rules = append(e.met.rules, ruleCounters{})
	e.rete.addRule(&rc, e)
}

// Rules returns the registered rules in registration order.
func (e *Engine) Rules() []*Rule { return e.rules }

// Halt stops the engine after the current firing completes.
func (e *Engine) Halt() { e.halted = true }

// Firings reports the number of rules fired so far.
func (e *Engine) Firings() int { return e.firings }

// Cycles reports the number of recognize-act cycles executed.
func (e *Engine) Cycles() int { return e.cycles }

// FiringsByRule returns the per-rule firing counts (fired rules only).
func (e *Engine) FiringsByRule() map[string]int {
	out := map[string]int{}
	for i, r := range e.rules {
		if n := e.met.rules[i].firings; n > 0 {
			out[r.Name] = n
		}
	}
	return out
}

// FiringsByCategory aggregates firing counts by rule category.
func (e *Engine) FiringsByCategory() map[string]int {
	out := map[string]int{}
	for i, r := range e.rules {
		if n := e.met.rules[i].firings; n > 0 {
			out[r.Category] += n
		}
	}
	return out
}

// Run executes recognize-act cycles until the conflict set is empty, a rule
// halts the engine, MaxFirings is exceeded (an error), or Interrupt reports
// an error (cancellation).
func (e *Engine) Run() error {
	for !e.halted {
		if e.Interrupt != nil {
			if err := e.Interrupt(); err != nil {
				return err
			}
		}
		e.cycles++
		totalCycles.Add(1)
		m := e.selectMatch()
		if m == nil {
			return nil
		}
		if e.firings >= e.MaxFirings {
			return fmt.Errorf("prod: firing limit %d exceeded (last rule %s)", e.MaxFirings, m.Rule.Name)
		}
		e.fired[e.refractionKey(m)] = true
		e.firings++
		e.met.rules[m.Rule.index].firings++
		if e.TraceWriter != nil {
			fmt.Fprintf(e.TraceWriter, "%6d  %-40s %s\n", e.firings, m.Rule.Name, matchIDs(m))
		}
		tx := &Tx{e: e, m: m}
		if e.jr != nil {
			f := &Firing{Seq: e.firings, Cycle: e.cycles, Rule: m.Rule.Name}
			f.Elements = make([]int, len(m.Elements))
			for i, el := range m.Elements {
				f.Elements[i] = el.ID
			}
			for i, n := range m.binds.names {
				f.Bindings = append(f.Bindings, Binding{Name: n, Val: e.encodeVal(m.binds.vals[i])})
			}
			e.jr.Firings = append(e.jr.Firings, f)
			e.cur = f
		}
		m.Rule.Action(tx, m)
		e.cur = nil
	}
	return nil
}

// matchIDs renders a match's element IDs for trace lines and divergence
// panics. It allocates, so it lives only on those cold paths — selection
// itself keys matches by the comparable refraction struct and ranks them
// with fixed-size recencyRank values.
func matchIDs(m *Match) string {
	parts := make([]string, len(m.Elements))
	for i, el := range m.Elements {
		parts[i] = fmt.Sprintf("#%d", el.ID)
	}
	return strings.Join(parts, " ")
}

func (e *Engine) refractionKey(m *Match) refraction {
	k := refraction{rule: m.Rule.index}
	for i, el := range m.Elements {
		if i == 4 {
			break
		}
		k.sig[i] = int64(el.ID)<<32 | int64(el.Time)
	}
	if len(m.Elements) > 4 {
		h := uint64(fnvOffset64)
		for _, el := range m.Elements[4:] {
			pack := uint64(el.ID)<<32 | uint64(el.Time)
			for s := 0; s < 64; s += 8 {
				h ^= (pack >> s) & 0xff
				h *= fnvPrime64
			}
		}
		k.extra = h
	}
	return k
}

// selectMatch picks the next instantiation to fire by conflict resolution:
//  1. refraction — an instantiation fires at most once per element recency
//  2. recency — the instantiation whose matched elements are most recent
//     (compared lexicographically on descending time tags)
//  3. specificity — more condition tests win
//  4. registration order, then element IDs (determinism)
//
// The ordering is total over distinct instantiations (two matches of one
// rule with identical elements are the same instantiation), so both
// matchers necessarily agree; CrossCheck asserts it anyway.
func (e *Engine) selectMatch() *Match {
	e.applyChanges()
	if e.CrossCheck {
		m := e.selectRete(true)
		exh := e.selectExhaustive(false)
		if !sameInstantiation(m, exh) {
			panic(fmt.Sprintf("prod: cross-check divergence at cycle %d:\n  rete:       %s\n  exhaustive: %s",
				e.cycles, describeMatch(m), describeMatch(exh)))
		}
		return m
	}
	if e.Exhaustive {
		return e.selectExhaustive(true)
	}
	return e.selectRete(true)
}

// applyChanges drains the buffered WM notifications into the Rete network
// when the current mode reads it, and marks it stale otherwise so a flip
// back from Exhaustive resynchronizes instead of reading outdated state.
func (e *Engine) applyChanges() {
	if !e.seeded {
		// The buffered changes describe the seeding of the initial WM,
		// which the network's first full match observes directly.
		e.seeded = true
		e.pending = e.pending[:0]
	}
	switch {
	case e.Exhaustive && !e.CrossCheck:
		e.reteSynced = false
	case !e.reteSynced:
		e.rete.resync(e)
		e.reteSynced = true
	case len(e.pending) > 0:
		e.rete.apply(e, e.pending)
	}
	e.pending = e.pending[:0]
}

func describeMatch(m *Match) string {
	if m == nil {
		return "<none>"
	}
	return m.Rule.Name + " " + matchIDs(m)
}

func sameInstantiation(a, b *Match) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rule.index != b.Rule.index || len(a.Elements) != len(b.Elements) {
		return false
	}
	for i := range a.Elements {
		if a.Elements[i] != b.Elements[i] {
			return false
		}
	}
	return true
}

// selectRete scans the Rete network's per-rule conflict sets.
func (e *Engine) selectRete(observe bool) *Match {
	return e.pickBest(func(i int) []*Match { return e.rete.rules[i].cs }, observe)
}

// pickBest applies conflict resolution over per-rule conflict sets. The
// scan allocates nothing: refraction keys and recency ranks are
// fixed-size values (see BenchmarkSelectionAllocs).
func (e *Engine) pickBest(get func(int) []*Match, observe bool) *Match {
	size := 0
	var best *Match
	var bestRank recencyRank
	for i, r := range e.rules {
		ms := get(i)
		size += len(ms)
		for _, m := range ms {
			if e.fired[e.refractionKey(m)] {
				continue
			}
			if r.Where != nil && !r.Where(m) {
				continue
			}
			var rk recencyRank
			rk.init(m)
			if best == nil || betterRank(m, &rk, best, &bestRank) {
				best = m
				bestRank = rk
			}
		}
	}
	if observe {
		e.met.observeConflictSize(size)
	}
	return best
}

// conflictSet returns rule i's instantiations as the Rete network holds
// them (used by the metrics snapshot and tests); nil while the network is
// stale, since the exhaustive matcher keeps no conflict set.
func (e *Engine) conflictSet(i int) []*Match {
	if e.reteSynced {
		return e.rete.rules[i].cs
	}
	return nil
}

// maxInlineRecency is the widest recency key kept on the stack; matches
// with more positive patterns fall back to a heap-allocated key.
const maxInlineRecency = 16

// recencyRank is a match's conflict-resolution sort key: its elements'
// time tags in descending order. It replaces a per-candidate []int +
// sort.Sort allocation pair with a fixed-size insertion sort — selection
// visits every instantiation every cycle, so this is the hot path.
type recencyRank struct {
	n        int
	t        [maxInlineRecency]int
	overflow []int // descending times when n > maxInlineRecency
}

func (k *recencyRank) init(m *Match) {
	k.n = len(m.Elements)
	if k.n > maxInlineRecency {
		k.overflow = make([]int, k.n)
		for i, el := range m.Elements {
			k.overflow[i] = el.Time
		}
		sortDescending(k.overflow)
		return
	}
	for i, el := range m.Elements {
		t := el.Time
		j := i
		for j > 0 && k.t[j-1] < t {
			k.t[j] = k.t[j-1]
			j--
		}
		k.t[j] = t
	}
}

func (k *recencyRank) at(i int) int {
	if k.overflow != nil {
		return k.overflow[i]
	}
	return k.t[i]
}

func sortDescending(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] < xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// betterRank reports whether m (with rank k) beats best (with rank bk)
// under conflict resolution rules 2-4 (refraction is filtered upstream).
func betterRank(m *Match, k *recencyRank, best *Match, bk *recencyRank) bool {
	// Recency, lexicographic on descending time tags.
	for i := 0; i < k.n && i < bk.n; i++ {
		if a, b := k.at(i), bk.at(i); a != b {
			return a > b
		}
	}
	if k.n != bk.n {
		return k.n > bk.n
	}
	// Specificity.
	if m.Rule.specificity != best.Rule.specificity {
		return m.Rule.specificity > best.Rule.specificity
	}
	// Deterministic tiebreakers.
	if m.Rule.index != best.Rule.index {
		return m.Rule.index < best.Rule.index
	}
	for i := range m.Elements {
		if m.Elements[i].ID != best.Elements[i].ID {
			return m.Elements[i].ID < best.Elements[i].ID
		}
	}
	return false
}

// MatchCount reports how many pattern tests the matcher has executed
// (alpha constant-test evaluations plus beta join tests for the Rete
// network; interpreted test counts for the exhaustive matcher); exposed
// for the engine benchmarks and the observability layer.
func (e *Engine) MatchCount() int { return e.matchCalls }

// KnowledgeStats describes a rule set for reporting (experiment E1).
type KnowledgeStats struct {
	Category      string
	Rules         int
	MeanLHS       float64 // mean condition tests per rule
	MeanPositives float64 // mean positive patterns per rule
}

// Knowledge summarizes the registered rules grouped by category, in first-
// appearance order.
func (e *Engine) Knowledge() []KnowledgeStats {
	order := []string{}
	agg := map[string]*KnowledgeStats{}
	for _, r := range e.rules {
		ks := agg[r.Category]
		if ks == nil {
			ks = &KnowledgeStats{Category: r.Category}
			agg[r.Category] = ks
			order = append(order, r.Category)
		}
		ks.Rules++
		ks.MeanLHS += float64(r.specificity)
		ks.MeanPositives += float64(r.positives)
	}
	out := make([]KnowledgeStats, 0, len(order))
	for _, cat := range order {
		ks := agg[cat]
		ks.MeanLHS /= float64(ks.Rules)
		ks.MeanPositives /= float64(ks.Rules)
		out = append(out, *ks)
	}
	return out
}
