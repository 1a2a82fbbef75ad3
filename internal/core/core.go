// Package core implements the VLSI Design Automation Assistant (DAA) of
// Kowalski & Thomas (DAC 1983): a knowledge-based synthesis program that
// translates an ISPS behavioral description — via the Value Trace — into a
// technology-independent register-transfer structure.
//
// The design knowledge is expressed as production rules (internal/prod)
// organized into the six phases of the prototype:
//
//  1. data-memory   — allocate registers, memories, and ports for carriers
//  2. control       — partition each value-trace body into control steps
//  3. operators     — allocate functional units and bind operators to them
//  4. values        — allocate holding registers for step-crossing values
//  5. datapath      — allocate constants, links, and multiplexers
//  6. cleanup       — global improvement: merge holding registers whose
//     values can never coexist, fold compatible units into
//     ALUs, exploit commutativity, and delete dead hardware
//
// Each phase runs its own rule set to quiescence (the prototype used OPS5
// context elements for the same sequencing). The result is a complete,
// validated rtl.Design plus the synthesis statistics the paper reported:
// rules fired per phase, working-memory size, and run time.
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/vt"
)

// Options configures a synthesis run.
type Options struct {
	// Limits constrains the control-step allocator. When UnitsPerKind is
	// nil every compute kind is capped at one unit, the same operating
	// point as the left-edge baseline, so design-quality comparisons
	// isolate the knowledge rules.
	Limits sched.Limits
	// DisableTraceRules skips phase 0 (trace refinement), leaving the
	// value trace exactly as built. Note that trace refinement mutates the
	// input trace in place, as the CMU front end did; synthesize from
	// vt.Clone(trace) to keep the original.
	DisableTraceRules bool
	// DisableCleanup skips the final global-improvement phase (for the E4
	// ablation).
	DisableCleanup bool
	// ExtraRules are appended to the cleanup phase; they let applications
	// extend the knowledge base (see examples/customrules).
	ExtraRules []*prod.Rule
	// Trace, when non-nil, receives one line per rule firing.
	Trace io.Writer
	// ExhaustiveMatch runs every phase engine with full per-cycle
	// re-matching instead of incremental conflict-set maintenance, for
	// comparison and debugging.
	ExhaustiveMatch bool
	// CrossCheckMatch runs the Rete network and the exhaustive matcher in
	// lockstep, panicking on any divergence in the selected instantiation
	// (the equivalence tests use this).
	CrossCheckMatch bool
	// Journal records every rule firing's effects and builds the
	// provenance index; Result.Journal and Result.Provenance are nil
	// without it. Off by default: the hot path pays only a nil check.
	Journal bool
	// FoldSlack loosens the cleanup phase's ALU-fold admission: a fold is
	// taken when the estimated gate cost after folding is at most
	// before+FoldSlack. Zero reproduces the prototype's "never bloat the
	// interconnect" rule; positive values trade mux gates for fewer units.
	FoldSlack float64
}

// PhaseStats records one phase's execution for experiment E3.
type PhaseStats struct {
	Name    string
	Rules   int
	Firings int
	Cycles  int
	WMPeak  int
	Elapsed time.Duration
	Counts  rtl.Counts   // design component counts after the phase (E4)
	Engine  prod.Metrics // engine observability snapshot (match cost, conflict set)
}

// Stats aggregates a synthesis run.
type Stats struct {
	Phases          []PhaseStats
	TotalFirings    int
	TotalMatchCalls int // pattern tests executed across all phases
	TotalCycles     int // recognize-act cycles across this run's engines
	Elapsed         time.Duration
}

// EngineMetrics merges the per-phase engine snapshots into one aggregate
// view of the run's match cost (per-rule rows keep their phase category).
func (s Stats) EngineMetrics() prod.Metrics {
	var m prod.Metrics
	for _, ph := range s.Phases {
		m = m.Merge(ph.Engine)
	}
	return m
}

// FiringsPerSecond reports the aggregate rule-firing rate.
func (s Stats) FiringsPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.TotalFirings) / s.Elapsed.Seconds()
}

// Result is a completed synthesis.
type Result struct {
	Design *rtl.Design
	Stats  Stats
	// Journal and Provenance are populated when Options.Journal is set:
	// the complete effect record of the run and the per-component firing
	// index built from it.
	Journal    *Journal
	Provenance *Provenance
}

// Synthesize runs the DAA on a value trace and returns the validated
// register-transfer design.
func Synthesize(trace *vt.Program, opt Options) (*Result, error) {
	// Compatibility wrapper for tests and tools that own their lifecycle;
	// library code threads a context through SynthesizeContext.
	//daalint:allow ctxflow documented compatibility wrapper
	return SynthesizeContext(context.Background(), trace, opt)
}

// SynthesizeContext is Synthesize under a context: cancellation and
// deadline are checked between synthesis phases and, through the engine's
// Interrupt hook, between production-engine cycles, so even a hung or
// runaway rule set returns promptly with the context's error and no
// partial design.
func SynthesizeContext(ctx context.Context, trace *vt.Program, opt Options) (*Result, error) {
	s := newSynth(trace, opt)
	phases := []struct {
		name  string
		rules func() []*prod.Rule
		seed  func(*prod.WM)
		post  func() error
	}{
		{"trace", s.traceRules, s.seedTrace, s.finishTrace},
		{"data-memory", s.dataMemoryRules, s.seedDataMemory, nil},
		{"control", s.controlRules, s.seedControl, s.finishControl},
		{"operators", s.operatorRules, s.seedOperators, nil},
		{"values", s.valueRules, s.seedValues, nil},
		{"datapath", s.datapathRules, s.seedDatapath, nil},
		{"cleanup", s.cleanupRules, s.seedCleanup, s.finishCleanup},
	}
	start := time.Now()
	var stats Stats
	for _, ph := range phases {
		if ph.name == "cleanup" && opt.DisableCleanup {
			break
		}
		if ph.name == "trace" && opt.DisableTraceRules {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: phase %s: %w", ph.name, err)
		}
		t0 := time.Now()
		wm := prod.NewWM()
		eng := prod.NewEngine(wm)
		if ctx.Done() != nil {
			eng.Interrupt = ctx.Err
		}
		eng.TraceWriter = opt.Trace
		eng.Exhaustive = opt.ExhaustiveMatch
		eng.CrossCheck = opt.CrossCheckMatch
		eng.Apply = s.applyEffect
		s.phase = ph.name
		s.seq = eng.Firings
		if opt.Journal {
			s.journal.Phases = append(s.journal.Phases, PhaseJournal{
				Phase: ph.name,
				J:     eng.RecordJournal(encodeRef),
			})
		}
		rules := ph.rules()
		if ph.name == "cleanup" {
			rules = append(rules, opt.ExtraRules...)
		}
		for _, r := range rules {
			eng.AddRule(r)
		}
		ph.seed(wm)
		if err := eng.Run(); err != nil {
			return nil, fmt.Errorf("core: phase %s: %w", ph.name, err)
		}
		if s.err != nil {
			return nil, fmt.Errorf("core: phase %s: %w", ph.name, s.err)
		}
		if s.prov != nil {
			// Post-phase hooks run outside any firing; rewire attributes
			// its components explicitly.
			s.prov.cur = FiringRef{}
		}
		if ph.post != nil {
			if err := ph.post(); err != nil {
				return nil, fmt.Errorf("core: phase %s: %w", ph.name, err)
			}
		}
		stats.Phases = append(stats.Phases, PhaseStats{
			Name:    ph.name,
			Rules:   len(rules),
			Firings: eng.Firings(),
			Cycles:  eng.Cycles(),
			WMPeak:  wm.Peak(),
			Elapsed: time.Since(t0),
			Counts:  s.d.Counts(),
			Engine:  eng.Metrics(),
		})
		stats.TotalFirings += eng.Firings()
		stats.TotalMatchCalls += eng.MatchCount()
		stats.TotalCycles += eng.Cycles()
	}
	stats.Elapsed = time.Since(start)
	if err := s.d.Validate(); err != nil {
		return nil, fmt.Errorf("core: synthesized design invalid: %w", err)
	}
	res := &Result{Design: s.d, Stats: stats}
	if opt.Journal {
		res.Journal = s.journal
		res.Provenance = buildProvenance(s.d, s.journal, s.prov)
	}
	return res, nil
}

// KnowledgeBase returns the full rule set grouped by phase, for the
// knowledge-base inventory (experiment E1). The rules are built against an
// empty design and must not be fired.
func KnowledgeBase() map[string][]*prod.Rule {
	tr := &vt.Program{Name: "kb"}
	s := newSynth(tr, Options{})
	return map[string][]*prod.Rule{
		"trace":       s.traceRules(),
		"data-memory": s.dataMemoryRules(),
		"control":     s.controlRules(),
		"operators":   s.operatorRules(),
		"values":      s.valueRules(),
		"datapath":    s.datapathRules(),
		"cleanup":     s.cleanupRules(),
	}
}

// PhaseOrder lists the phases in execution order.
var PhaseOrder = []string{"trace", "data-memory", "control", "operators", "values", "datapath", "cleanup"}

// synth carries the mutable synthesis state shared by rule actions.
type synth struct {
	opt Options
	tr  *vt.Program
	d   *rtl.Design
	lim sched.Limits

	// control phase: per-body step cursors and per-step resource usage.
	opStep  map[*vt.Op]int
	stepUse map[stepKey]*stepUsage
	bodyLen map[*vt.Body]int
	// operator phase: units busy per (unit, state).
	unitBusy map[unitState]bool
	// value phase and cleanup: values held per register.
	regVals map[*rtl.Register][]*vt.Value
	// cleanup: sub-body -> structural operator executing it.
	embed map[*vt.Body]*vt.Op
	// first error raised by a rule action (halts the engine).
	err error

	// Journaling and provenance state. phase names the phase whose engine
	// (or replayer) is running; seq reports the current firing sequence;
	// journal collects the per-phase effect records; prov attributes
	// design mutations to firings (nil when journaling is off).
	phase   string
	seq     func() int
	journal *Journal
	prov    *provTrack
}

type stepKey struct {
	body *vt.Body
	step int
}

type stepUsage struct {
	kind      map[vt.OpKind]int
	mem       map[*vt.Carrier]int
	regWrites map[*vt.Carrier][]*vt.Op
	closed    bool // a control operator ended this step
	total     int
}

type unitState struct {
	u *rtl.Unit
	s *rtl.State
}

func newSynth(trace *vt.Program, opt Options) *synth {
	lim := opt.Limits
	if lim.UnitsPerKind == nil {
		lim.UnitsPerKind = map[vt.OpKind]int{}
		for _, op := range trace.AllOps() {
			if op.Kind.IsCompute() {
				lim.UnitsPerKind[op.Kind] = 1
			}
		}
	}
	s := &synth{
		opt:      opt,
		tr:       trace,
		d:        rtl.NewDesign(trace.Name+"-daa", trace),
		lim:      lim,
		opStep:   map[*vt.Op]int{},
		stepUse:  map[stepKey]*stepUsage{},
		bodyLen:  map[*vt.Body]int{},
		unitBusy: map[unitState]bool{},
		regVals:  map[*rtl.Register][]*vt.Value{},
		seq:      func() int { return 0 },
	}
	if opt.Journal {
		s.journal = &Journal{Design: s.d.Name}
		s.prov = newProvTrack()
		s.d.Observe(func(c any) {
			if s.prov.cur.Seq == 0 {
				return
			}
			if ref, ok := encodeRef(c); ok {
				s.prov.created[ref] = s.prov.cur
			}
		})
	}
	return s
}

func (s *synth) usage(body *vt.Body, step int) *stepUsage {
	k := stepKey{body, step}
	u := s.stepUse[k]
	if u == nil {
		u = &stepUsage{
			kind:      map[vt.OpKind]int{},
			mem:       map[*vt.Carrier]int{},
			regWrites: map[*vt.Carrier][]*vt.Op{},
		}
		s.stepUse[k] = u
	}
	return u
}

// fail records the first rule-action error and halts the engine.
func (s *synth) fail(tx *prod.Tx, err error) {
	if s.err == nil {
		s.err = err
	}
	tx.Halt()
}
