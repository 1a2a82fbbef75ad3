package prod

import (
	"sort"
	"time"
)

// engineMetrics is the engine's internal observability state: per-rule
// counters plus a bounded, stride-doubling sample of the conflict-set size
// over the run's cycles.
type engineMetrics struct {
	rules       []ruleCounters
	rebuilds    int
	deltas      int
	added       int
	invalidated int

	// Rete network activity.
	alphaEvals    int
	joinTests     int
	tokenAsserts  int
	tokenRetracts int

	sizePeak   int
	sizeSum    int
	sizeCount  int
	series     []int
	stride     int
	sinceTaken int
}

type ruleCounters struct {
	firings     int
	rebuilds    int
	deltas      int
	matchCalls  int
	matchTime   time.Duration
	added       int
	invalidated int
}

// seriesCap bounds the conflict-set size series: when full, every other
// sample is dropped and the sampling stride doubles, so an arbitrarily
// long run is summarized by at most seriesCap points.
const seriesCap = 512

func (m *engineMetrics) observeConflictSize(n int) {
	if n > m.sizePeak {
		m.sizePeak = n
	}
	m.sizeSum += n
	m.sizeCount++
	if m.stride == 0 {
		m.stride = 1
	}
	m.sinceTaken++
	if m.sinceTaken < m.stride {
		return
	}
	m.sinceTaken = 0
	m.series = append(m.series, n)
	if len(m.series) >= seriesCap {
		half := m.series[:0]
		for i := 0; i < seriesCap; i += 2 {
			half = append(half, m.series[i])
		}
		m.series = half
		m.stride *= 2
	}
}

// RuleMetrics is one rule's share of the engine's match work. Rules share
// first join nodes, and each node's work is counted for the rule owning
// it, the first rule registered with it.
type RuleMetrics struct {
	Name     string
	Category string
	Firings  int // times the rule fired
	Rebuilds int // from-scratch activations (the seeding match)
	// Deltas counts the batches whose changes right-activated the rule's
	// own nodes.
	Deltas int
	// MatchCalls counts the join tests made at the nodes the rule owns,
	// whichever rule's activation reached them.
	MatchCalls int
	// MatchTime is the wall time of the rule's activations: seeding, and
	// each change's right activation of its own nodes, including what an
	// activation of a shared node propagates into other rules' nodes.
	MatchTime   time.Duration
	Added       int // instantiations that entered the conflict set
	Invalidated int // instantiations that left it
	Size        int // instantiations currently in the conflict set
}

// Metrics is a point-in-time snapshot of the engine's match-cost
// observability layer: where the recognize-act loop spends its time, how
// much churn the conflict set sees, and how large it runs.
type Metrics struct {
	Cycles      int
	Firings     int
	MatchCalls  int           // total pattern tests executed
	MatchTime   time.Duration // wall time spent matching, summed over rules
	Rebuilds    int           // from-scratch rule activations performed
	Deltas      int           // incremental conflict-set updates performed
	Added       int           // instantiations that entered the conflict set
	Invalidated int           // instantiations that left it

	ConflictPeak int     // largest conflict set observed
	ConflictMean float64 // mean conflict-set size over cycles
	// ConflictSeries samples the conflict-set size over the run, one point
	// per SeriesStride cycles (bounded; long runs are downsampled).
	ConflictSeries []int
	SeriesStride   int

	// Rete network shape and activity. The shape counters (tests, mems,
	// nodes) describe the compiled network; AlphaPatterns / AlphaMems is
	// the alpha-sharing ratio across the rule set. The activity counters
	// partition MatchCalls for the Rete matcher: AlphaEvals constant-test
	// evaluations (deduplicated by the per-element cache) plus JoinTests
	// beta join evaluations.
	AlphaTests    int // distinct compiled constant tests
	AlphaMems     int // shared alpha memories
	AlphaPatterns int // compiled patterns fed by those memories
	AlphaEvals    int // constant-test evaluations performed
	JoinNodes     int // positive beta join nodes, a shared one counted once
	NegNodes      int // negative (negated-pattern) nodes
	JoinTests     int // beta join-closure evaluations
	TokenAsserts  int // partial-match tokens created
	TokenRetracts int // partial-match tokens deleted
	TokensLive    int // tokens currently stored in the network

	Rules []RuleMetrics // per-rule breakdown, registration order
}

// Metrics returns a snapshot of the engine's observability counters. They
// describe the Rete network's work; CrossCheck's exhaustive leg adds
// nothing to them.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		Cycles:       e.cycles,
		Firings:      e.firings,
		MatchCalls:   e.matchCalls,
		Rebuilds:     e.met.rebuilds,
		Deltas:       e.met.deltas,
		Added:        e.met.added,
		Invalidated:  e.met.invalidated,
		ConflictPeak: e.met.sizePeak,
		SeriesStride: e.met.stride,

		AlphaTests:    e.rete.alpha.nTests,
		AlphaMems:     len(e.rete.alpha.memBySig),
		AlphaPatterns: e.rete.patterns,
		AlphaEvals:    e.met.alphaEvals,
		JoinTests:     e.met.joinTests,
		TokenAsserts:  e.met.tokenAsserts,
		TokenRetracts: e.met.tokenRetracts,
		TokensLive:    e.rete.tokensLive(),
	}
	m.JoinNodes, m.NegNodes = e.rete.nodeCounts()
	if e.met.sizeCount > 0 {
		m.ConflictMean = float64(e.met.sizeSum) / float64(e.met.sizeCount)
	}
	m.ConflictSeries = append([]int(nil), e.met.series...)
	m.Rules = make([]RuleMetrics, len(e.rules))
	for i, r := range e.rules {
		c := e.met.rules[i]
		m.MatchTime += c.matchTime
		m.Rules[i] = RuleMetrics{
			Name:        r.Name,
			Category:    r.Category,
			Firings:     c.firings,
			Rebuilds:    c.rebuilds,
			Deltas:      c.deltas,
			MatchCalls:  c.matchCalls,
			MatchTime:   c.matchTime,
			Added:       c.added,
			Invalidated: c.invalidated,
			Size:        e.rete.rules[i].size,
		}
	}
	return m
}

// TopRulesByMatchTime returns the n most expensive rules to match,
// descending; ties break by registration order for determinism.
func (m Metrics) TopRulesByMatchTime(n int) []RuleMetrics {
	out := append([]RuleMetrics(nil), m.Rules...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].MatchTime > out[j].MatchTime })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Merge folds another snapshot into this one (used to aggregate the
// per-phase engines of a synthesis run). Conflict statistics aggregate by
// peak/weighted mean; the series is not merged.
func (m Metrics) Merge(o Metrics) Metrics {
	totalCycles := m.Cycles + o.Cycles
	if totalCycles > 0 {
		m.ConflictMean = (m.ConflictMean*float64(m.Cycles) + o.ConflictMean*float64(o.Cycles)) / float64(totalCycles)
	}
	m.Cycles = totalCycles
	m.Firings += o.Firings
	m.MatchCalls += o.MatchCalls
	m.MatchTime += o.MatchTime
	m.Rebuilds += o.Rebuilds
	m.Deltas += o.Deltas
	m.Added += o.Added
	m.Invalidated += o.Invalidated
	m.AlphaTests += o.AlphaTests
	m.AlphaMems += o.AlphaMems
	m.AlphaPatterns += o.AlphaPatterns
	m.AlphaEvals += o.AlphaEvals
	m.JoinNodes += o.JoinNodes
	m.NegNodes += o.NegNodes
	m.JoinTests += o.JoinTests
	m.TokenAsserts += o.TokenAsserts
	m.TokenRetracts += o.TokenRetracts
	m.TokensLive += o.TokensLive
	if o.ConflictPeak > m.ConflictPeak {
		m.ConflictPeak = o.ConflictPeak
	}
	m.ConflictSeries = nil
	m.SeriesStride = 0
	m.Rules = append(append([]RuleMetrics(nil), m.Rules...), o.Rules...)
	return m
}
