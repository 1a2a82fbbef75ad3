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
	// asked at selection time, every cycle, of the rule's instantiations the
	// agenda ranks above the first one that may fire, so it may read state
	// outside working memory through the engine's Host (the DAA rules
	// consult the growing RTL design); it must not mutate anything.
	Where func(Host, *Match) bool
	// Action fires the rule. It receives a transaction handle: every
	// working-memory operation (make/modify/remove), halt, and registered
	// host effect (Tx.Do) goes through the Tx, which is how the effect
	// journal sees them.
	Action func(*Tx, *Match)

	index       int
	specificity int
	negates     bool // a pattern is negated (refraction keeps its keys, agenda.go)
}

// Host is the state outside working memory that a rule base acts on. Apply
// executes one registered host effect on behalf of Tx.Do (and of replay):
// it must be a pure application of decisions already in its arguments (no
// re-deciding), because replay re-invokes it verbatim, and it must not
// mutate working memory. Rules reach the host through Tx.Host in actions
// and as Where's first argument, so one rule value serves every engine.
type Host interface {
	Apply(name string, args []any) (any, error)
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
// AddRule time, before the first cycle, into shared alpha constant tests
// and a forest of beta join nodes with stored partial-match tokens (one
// path per rule, first nodes shared where first patterns compile alike),
// so each WM change reruns only the join work downstream of the memories
// it touched. The network also keeps the agenda (agenda.go): the unspent
// instantiations in conflict-resolution order, so a cycle reads the best
// one instead of scanning the conflict set. CrossCheck runs the
// exhaustive matcher (exhaustive.go), which re-derives and ranks every
// instantiation from scratch, in lockstep and panics if it ever selects a
// different instantiation, which is how the equivalence tests pin the
// network down. Conflict resolution is a total order over instantiations,
// so equal conflict sets force equal selections whichever matcher built
// them.
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
	// CrossCheck runs the exhaustive matcher beside the Rete network in
	// lockstep and panics on any divergence in the selected instantiation.
	// It is a verification mode: it costs a full re-match per cycle and
	// charges none of it to the metrics. Set it before the first Run: the
	// oracle keeps its own record of what has fired.
	CrossCheck bool
	// Host, when non-nil, executes the host effects of Tx.Do and is what
	// Where tests and actions read outside working memory.
	Host Host

	halted     bool
	err        error // the first host-effect error; Run returns it
	firings    int
	cycles     int
	matchCalls int

	// pending buffers the WM change notifications made since the last
	// cycle. Changes before the first cycle are not buffered: the network's
	// first full match reads live working memory instead.
	pending []Change

	// rete is the match network and agenda its selection order; oracle is
	// CrossCheck's exhaustive matcher, made on first use.
	rete   *rete
	agenda agenda
	oracle *oracle

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
// in OPS5. The agenda spends a fired Match in place and keeps keys only
// for rules with a negated pattern; the oracle keeps every fired key.
// Rules with more than four positive patterns fold the overflow into an
// FNV-1a hash so key construction never allocates.
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
		rete:       newRete(),
	}
	wm.Observe(func(c Change) {
		if e.rete.seeded {
			e.pending = append(e.pending, c)
		}
		if e.jr != nil {
			e.recordChange(c)
		}
	})
	return e
}

// AddRule registers a rule. Registration order is the final conflict-
// resolution tiebreaker, so rule sets behave deterministically.
//
// Registration compiles the rule's LHS into the Rete network (compile.go)
// against the working memory's declared layouts: a pattern naming a class
// or attribute the schema does not declare panics, naming the rule, and so
// does a rule registered after the engine's first cycle. Join state that
// changes outside working memory belongs in Where, which is asked afresh
// at selection time. The rule's patterns are final when built, so AddRule
// reads them in place: rule values are shared across engines (and across
// goroutines when the flow pool runs synthesis concurrently).
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
	if e.rete.seeded {
		panic(fmt.Sprintf("prod: rule %s added after the engine's first cycle", r.Name))
	}
	rc := *r
	rc.index = len(e.rules)
	for _, p := range rc.Patterns {
		rc.specificity += p.specificity()
		rc.negates = rc.negates || p.Negated
	}
	cr := compileRule(&rc, e.WM)
	e.rules = append(e.rules, &rc)
	e.met.rules = append(e.met.rules, ruleCounters{})
	e.rete.addRule(&rc, cr, &e.agenda)
}

// Rules returns the registered rules in registration order.
func (e *Engine) Rules() []*Rule { return e.rules }

// Halt stops the engine after the current firing completes.
func (e *Engine) Halt() { e.halted = true }

// Firings reports the number of rules fired so far.
func (e *Engine) Firings() int { return e.firings }

// Cycles reports the number of recognize-act cycles executed.
func (e *Engine) Cycles() int { return e.cycles }

// Run executes recognize-act cycles until no instantiation can fire, a rule
// halts the engine, MaxFirings is exceeded (an error), Interrupt reports an
// error (cancellation), or a host effect fails: Tx.Do halts the engine
// after that firing, and Run returns the first such error.
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
		e.fire(m)
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
	return e.err
}

// fire spends m on the agenda and, under CrossCheck, in the oracle's
// refraction record.
func (e *Engine) fire(m *Match) {
	e.agenda.fire(m)
	if e.CrossCheck {
		e.exhaustive().fired[refractionKey(m)] = true
	}
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

func refractionKey(m *Match) refraction {
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
// The Rete matcher applies refraction when it queues an instantiation and
// keeps the agenda sorted by rules 2-4, so it reads the top entry whose
// Where passes; the exhaustive oracle ranks every instantiation afresh and
// filters the fired keys it has recorded.
// The ordering is total over distinct instantiations (two matches of one
// rule with identical elements are the same instantiation), so both
// matchers necessarily agree; CrossCheck asserts it anyway.
func (e *Engine) selectMatch() *Match {
	e.applyChanges()
	m := e.selectRete(true)
	if e.CrossCheck {
		if exh := e.selectExhaustive(); !sameInstantiation(m, exh) {
			panic(fmt.Sprintf("prod: cross-check divergence at cycle %d:\n  rete:       %s\n  exhaustive: %s",
				e.cycles, describeMatch(m), describeMatch(exh)))
		}
	}
	return m
}

// applyChanges drains the buffered WM notifications into the Rete network.
// The first call seeds the network from live WM instead; nothing is
// buffered before it.
func (e *Engine) applyChanges() {
	switch {
	case !e.rete.seeded:
		e.rete.seed(e)
	case len(e.pending) > 0:
		e.rete.apply(e, e.pending)
		e.pending = e.pending[:0]
	}
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

// selectRete reads the agenda. observe records the conflict-set size for
// the metrics: every instantiation the network holds, spent ones included.
func (e *Engine) selectRete(observe bool) *Match {
	if observe {
		size := 0
		for _, rr := range e.rete.rules {
			size += rr.size
		}
		e.met.observeConflictSize(size)
	}
	return e.agenda.best(e.Host)
}

// maxInlineRecency is the widest recency key kept on the stack; matches
// with more positive patterns fall back to a heap-allocated key.
const maxInlineRecency = 16

// recencyRank is a match's conflict-resolution sort key: its elements'
// time tags in descending order, kept in a fixed-size array so ranking
// allocates nothing for up to maxInlineRecency positive patterns.
type recencyRank struct {
	n        int
	t        [maxInlineRecency]int
	overflow []int // descending times when n > maxInlineRecency
}

// init ranks m by its elements' current time tags.
func (k *recencyRank) init(m *Match) {
	k.start(len(m.Elements))
	for i, el := range m.Elements {
		k.insert(i, el.Time)
	}
}

// stamped ranks a Rete match by the time tags it was queued under, which
// its tokens carry.
func (k *recencyRank) stamped(m *Match) {
	k.start(len(m.Elements))
	i := 0
	for x := m.tok; x != nil; x = x.parent {
		if x.el != nil {
			k.insert(i, x.time)
			i++
		}
	}
}

func (k *recencyRank) start(n int) {
	k.n = n
	k.overflow = nil
	if n > maxInlineRecency {
		k.overflow = make([]int, n)
	}
}

// insert adds the i-th time tag, keeping the first i+1 descending.
func (k *recencyRank) insert(i, t int) {
	ts := k.t[:]
	if k.overflow != nil {
		ts = k.overflow
	}
	for ; i > 0 && ts[i-1] < t; i-- {
		ts[i] = ts[i-1]
	}
	ts[i] = t
}

func (k *recencyRank) at(i int) int {
	if k.overflow != nil {
		return k.overflow[i]
	}
	return k.t[i]
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

// MatchCount reports how many pattern tests the Rete network has executed
// (alpha constant-test evaluations plus beta join tests); exposed for the
// engine benchmarks and the observability layer.
func (e *Engine) MatchCount() int { return e.matchCalls }
