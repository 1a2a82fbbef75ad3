// Package core implements the VLSI Design Automation Assistant (DAA) of
// Kowalski & Thomas (DAC 1983): a knowledge-based synthesis program that
// translates an ISPS behavioral description — via the Value Trace — into a
// technology-independent register-transfer structure.
//
// The design knowledge is expressed as production rules (internal/prod)
// organized into the seven phases of the prototype:
//
//  0. trace         — refine the value trace in place before allocation
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
// context elements for the same sequencing). The phases, in order, with
// their rules, working-memory schemas, seeders and post hooks, are one
// package-level table, the knowledge base (kb.go). The result is a complete
// rtl.Design plus the synthesis statistics the paper reported: rules fired
// per phase, working-memory size, and run time. rtl.Design.Validate checks
// the design and derives its controller; flow's validate stage runs it.
//
// Phase 0 is the front end's knowledge: the CMU front end refined the
// trace it built before the DAA saw it. Refine runs phase 0 on a trace the
// caller owns and returns a Refinement; SynthesizeRefined runs phases 1-6
// on a refinement without writing it, so one refinement serves any number
// of syntheses (flow keeps one per source). SynthesizeContext is Refine on
// a copy of its input followed by SynthesizeRefined: it never writes the
// trace it is given.
package core

import (
	"context"
	"errors"
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
	// DisableTraceRules skips phase 0 (trace refinement), so the design
	// binds the value trace exactly as built. Phase 0 is the trace's only
	// writer: Refine rewrites the trace it is handed, as the CMU front end
	// refined the trace it built, and the design binds the refinement.
	// SynthesizeContext hands Refine a copy, so either way synthesis never
	// writes its input trace.
	DisableTraceRules bool
	// DisableCleanup skips the final global-improvement phase (for the E4
	// ablation).
	DisableCleanup bool
	// ExtraRules are appended to the cleanup phase; they let applications
	// extend the knowledge base (see examples/customrules). Their patterns
	// may name only the cleanup phase's declared vocabulary (its
	// Phase.Schema): "hreg" and "unit" elements.
	ExtraRules []*prod.Rule
	// Trace, when non-nil, receives one line per rule firing.
	Trace io.Writer
	// CrossCheckMatch runs the exhaustive matcher beside the Rete network
	// in lockstep, panicking on any divergence in the selected
	// instantiation (the equivalence tests use this).
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

// Untimed returns a copy of s with its wall times zeroed and its counts
// kept: how a run reports work it reuses instead of repeating, as flow
// reports a cached refinement's phase 0.
func (s Stats) Untimed() Stats {
	s.Elapsed = 0
	s.Phases = append([]PhaseStats(nil), s.Phases...)
	for i := range s.Phases {
		ph := &s.Phases[i]
		ph.Elapsed = 0
		ph.Engine.MatchTime = 0
		ph.Engine.Rules = append([]prod.RuleMetrics(nil), ph.Engine.Rules...)
		for j := range ph.Engine.Rules {
			ph.Engine.Rules[j].MatchTime = 0
		}
	}
	return s
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

// Synthesize runs the DAA on a value trace and returns the
// register-transfer design. It never writes trace, so callers may share
// one trace across concurrent syntheses: when phase 0 runs it refines a
// copy, and the design binds that copy (read Design.Trace, not trace, to
// pair trace nodes with the design). It does not validate the design:
// callers run rtl.Design.Validate, as flow's validate stage does once per
// compilation.
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
// partial design. It is Refine on a copy of trace followed by
// SynthesizeRefined.
func SynthesizeContext(ctx context.Context, trace *vt.Program, opt Options) (*Result, error) {
	if !opt.DisableTraceRules {
		trace = vt.Clone(trace) // phase 0 refines the copy in place
	}
	ref, err := Refine(ctx, trace, opt)
	if err != nil {
		return nil, err
	}
	return SynthesizeRefined(ctx, ref, opt)
}

// Refinement is a value trace after phase 0, trace refinement: the trace
// the design phases bind, with the phase's statistics. The CMU front end
// handed the DAA a trace it had already refined; a refinement plays that
// part. Nothing writes it once Refine returns, so any number of
// concurrent syntheses may share one (flow keeps one per source).
type Refinement struct {
	// Trace is the refined value trace.
	Trace *vt.Program
	// Stats holds phase 0's row and totals; it has no phase when
	// Options.DisableTraceRules skipped the phase.
	Stats Stats

	// units caps each compute kind of the trace as built at one unit:
	// the default limits, read before phase 0 turned any comparison into
	// a test or an inverter.
	units map[vt.OpKind]int
	// journal records phase 0's firings when Options.Journal was set.
	journal *prod.Journal
}

// Refine runs phase 0 on trace in place, under ctx, and returns the
// refinement. The caller owns trace and gives it up: Refine rewrites it,
// and the refinement's Trace is trace. With Options.DisableTraceRules
// nothing runs and the refinement is trace as built. Of opt, Refine reads
// only DisableTraceRules and the switches that observe phase 0: Trace,
// CrossCheckMatch and Journal.
func Refine(ctx context.Context, trace *vt.Program, opt Options) (Refinement, error) {
	ref := Refinement{Trace: trace, units: sched.Limits{}.ForProgram(trace).UnitsPerKind}
	s := &synth{opt: opt, tr: trace}
	if opt.Journal {
		s.journal = &Journal{}
	}
	start := time.Now()
	if err := s.runPhases(ctx, knowledgeBase[:1], &ref.Stats); err != nil {
		return Refinement{}, err
	}
	ref.Stats.Elapsed = time.Since(start)
	if s.journal != nil && len(s.journal.Phases) > 0 {
		ref.journal = s.journal.Phases[0].J
	}
	return ref, nil
}

// SharesRefinement reports whether a synthesis under o may bind a
// refinement Refine made under the zero Options, as flow's cached one
// is: o leaves phase 0 on and sets none of the switches that observe it
// (Trace, CrossCheckMatch, Journal). Those are the options Refine reads.
func (o Options) SharesRefinement() bool {
	return !o.DisableTraceRules && o.Trace == nil && !o.CrossCheckMatch && !o.Journal
}

// SynthesizeRefined runs phases 1-6 on a refinement from Refine and
// returns the design, which binds ref.Trace. It never writes the
// refinement. The statistics begin with the refinement's, so phase 0
// reports what Refine measured. Options.DisableTraceRules is Refine's
// concern and is not read here; with Options.Journal set the refinement
// must have been made with it too, so that the journal replays phase 0.
func SynthesizeRefined(ctx context.Context, ref Refinement, opt Options) (*Result, error) {
	if opt.Journal && len(ref.Stats.Phases) > 0 && ref.journal == nil {
		return nil, errors.New("core: a journaled synthesis needs a refinement made with Options.Journal")
	}
	lim := opt.Limits
	if lim.UnitsPerKind == nil {
		lim.UnitsPerKind = ref.units
	}
	s := newSynth(ref.Trace, lim, opt)
	if opt.Journal && ref.journal != nil {
		s.journal.Phases = append(s.journal.Phases, PhaseJournal{Phase: knowledgeBase[0].Name, J: ref.journal})
	}
	start := time.Now()
	stats := ref.Stats
	stats.Phases = append(make([]PhaseStats, 0, len(knowledgeBase)), ref.Stats.Phases...)
	if err := s.runPhases(ctx, knowledgeBase[1:], &stats); err != nil {
		return nil, err
	}
	stats.Elapsed += time.Since(start)
	res := &Result{Design: s.d, Stats: stats}
	if opt.Journal {
		res.Journal = s.journal
		res.Provenance = buildProvenance(s.d, s.journal, s.prov)
	}
	return res, nil
}

// runPhases runs each phase that s.opt does not skip, in order, each in a
// fresh engine over its declared working memory, and appends the phase's
// statistics to stats. It is the one phase loop: Refine runs phase 0
// through it, SynthesizeRefined the design phases.
func (s *synth) runPhases(ctx context.Context, phases []Phase, stats *Stats) error {
	for i := range phases {
		ph := &phases[i]
		if ph.skip != nil && ph.skip(s.opt) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: phase %s: %w", ph.Name, err)
		}
		t0 := time.Now()
		wm := prod.NewWM(ph.Schema)
		eng := prod.NewEngine(wm)
		if ctx.Done() != nil {
			eng.Interrupt = ctx.Err
		}
		eng.TraceWriter = s.opt.Trace
		eng.CrossCheck = s.opt.CrossCheckMatch
		eng.Host = s
		s.phase = ph.Name
		s.seq = eng.Firings
		if s.opt.Journal {
			s.journal.Phases = append(s.journal.Phases, PhaseJournal{
				Phase: ph.Name,
				J:     eng.RecordJournal(encodeRef),
			})
		}
		for _, r := range ph.Rules {
			eng.AddRule(r)
		}
		if ph.extra != nil {
			for _, r := range ph.extra(s.opt) {
				eng.AddRule(r)
			}
		}
		ph.seed(s, wm)
		if err := eng.Run(); err != nil {
			return fmt.Errorf("core: phase %s: %w", ph.Name, err)
		}
		if s.prov != nil {
			// Post-phase hooks run outside any firing; rewire attributes
			// its components explicitly.
			s.prov.cur = FiringRef{}
		}
		if ph.post != nil {
			if err := ph.post(s); err != nil {
				return fmt.Errorf("core: phase %s: %w", ph.Name, err)
			}
		}
		row := PhaseStats{
			Name:    ph.Name,
			Rules:   len(eng.Rules()),
			Firings: eng.Firings(),
			Cycles:  eng.Cycles(),
			WMPeak:  wm.Peak(),
			Elapsed: time.Since(t0),
			Engine:  eng.Metrics(),
		}
		if s.d != nil { // phase 0 refines the trace before there is a design
			row.Counts = s.d.Counts()
		}
		stats.Phases = append(stats.Phases, row)
		stats.TotalFirings += eng.Firings()
		stats.TotalMatchCalls += eng.MatchCount()
		stats.TotalCycles += eng.Cycles()
	}
	return nil
}

// synth carries the mutable state of one synthesis: the engines' Host,
// which the shared rule base reads in Where tests and actions and changes
// through Tx.Do (Apply, journal.go).
type synth struct {
	opt Options
	tr  *vt.Program
	d   *rtl.Design
	lim sched.Limits

	// control phase: each body's control steps.
	steps map[*vt.Body]*sched.Schedule
	// operator phase: units busy per (unit, state).
	unitBusy map[unitState]bool
	// value phase and cleanup: values held per register.
	regVals map[*rtl.Register][]*vt.Value
	// cleanup: sub-body -> structural operator executing it.
	embed map[*vt.Body]*vt.Op

	// Journaling and provenance state. phase names the phase whose engine
	// (or replayer) is running; seq reports the current firing sequence;
	// journal collects the per-phase effect records; prov attributes
	// design mutations to firings (nil when journaling is off).
	phase   string
	seq     func() int
	journal *Journal
	prov    *provTrack
}

type unitState struct {
	u *rtl.Unit
	s *rtl.State
}

func newSynth(trace *vt.Program, lim sched.Limits, opt Options) *synth {
	s := &synth{
		opt:      opt,
		tr:       trace,
		d:        rtl.NewDesign(trace.Name+"-daa", trace),
		lim:      lim,
		steps:    make(map[*vt.Body]*sched.Schedule, len(trace.Bodies)),
		unitBusy: map[unitState]bool{},
		regVals:  map[*rtl.Register][]*vt.Value{},
		seq:      func() int { return 0 },
	}
	for _, b := range trace.Bodies {
		s.steps[b] = sched.New(b)
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
