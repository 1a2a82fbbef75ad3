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
	// DisableTraceRules skips phase 0 (trace refinement), so the design
	// binds the value trace exactly as built. Phase 0 is the trace's only
	// writer, and it refines a copy of its own, as the CMU front end
	// refined the trace it built; the design then binds that copy. Either
	// way synthesis never writes its input trace.
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
// partial design.
func SynthesizeContext(ctx context.Context, trace *vt.Program, opt Options) (*Result, error) {
	if !opt.DisableTraceRules {
		trace = vt.Clone(trace) // phase 0 refines the copy in place
	}
	s := newSynth(trace, opt)
	start := time.Now()
	var stats Stats
	for _, ph := range knowledgeBase {
		if ph.skip != nil && ph.skip(opt) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: phase %s: %w", ph.Name, err)
		}
		t0 := time.Now()
		wm := prod.NewWM(ph.Schema)
		eng := prod.NewEngine(wm)
		if ctx.Done() != nil {
			eng.Interrupt = ctx.Err
		}
		eng.TraceWriter = opt.Trace
		eng.CrossCheck = opt.CrossCheckMatch
		eng.Host = s
		s.phase = ph.Name
		s.seq = eng.Firings
		if opt.Journal {
			s.journal.Phases = append(s.journal.Phases, PhaseJournal{
				Phase: ph.Name,
				J:     eng.RecordJournal(encodeRef),
			})
		}
		for _, r := range ph.Rules {
			eng.AddRule(r)
		}
		if ph.extra != nil {
			for _, r := range ph.extra(opt) {
				eng.AddRule(r)
			}
		}
		ph.seed(s, wm)
		if err := eng.Run(); err != nil {
			return nil, fmt.Errorf("core: phase %s: %w", ph.Name, err)
		}
		if s.prov != nil {
			// Post-phase hooks run outside any firing; rewire attributes
			// its components explicitly.
			s.prov.cur = FiringRef{}
		}
		if ph.post != nil {
			if err := ph.post(s); err != nil {
				return nil, fmt.Errorf("core: phase %s: %w", ph.Name, err)
			}
		}
		stats.Phases = append(stats.Phases, PhaseStats{
			Name:    ph.Name,
			Rules:   len(eng.Rules()),
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
	res := &Result{Design: s.d, Stats: stats}
	if opt.Journal {
		res.Journal = s.journal
		res.Provenance = buildProvenance(s.d, s.journal, s.prov)
	}
	return res, nil
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

func newSynth(trace *vt.Program, opt Options) *synth {
	s := &synth{
		opt:      opt,
		tr:       trace,
		d:        rtl.NewDesign(trace.Name+"-daa", trace),
		lim:      opt.Limits.ForProgram(trace),
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
