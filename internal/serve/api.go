// Package serve is the synthesis daemon: a concurrent HTTP/JSON service
// over the staged pipeline (internal/flow), turning the DAA from a batch
// CLI into the interactive assistant the paper pitches — a designer
// submits an ISPS behavioral description and gets back a register-transfer
// structure, its cost table, and diagnostics.
//
// Endpoints:
//
//	POST /v1/synthesize  one source + options → design summary, cost,
//	                     diagnostics, optional Verilog/control-table/DOT
//	POST /v1/batch       N sources fanned out on the bounded worker pool,
//	                     results in input order
//	POST /v1/lint        semantic lint of one source (ispsfmt -lint) and/or
//	                     the embedded rule base (daa -lint-rules), findings
//	                     with positions; runs on the same worker pool
//	GET  /v1/healthz     liveness and drain state
//	GET  /v1/metrics     JSON counters: requests, cache hits/misses, queue
//	                     depth, in-flight, per-stage wall time, engine rollups
//
// Robustness is the point of the package: per-request deadlines propagate
// into core.SynthesizeContext so a client disconnect interrupts the
// recognize-act loop mid-synthesis; admission control sheds load with 429
// once the bounded queue is full; request bodies are size-limited; panics
// become 500s with request IDs in every log line; Shutdown drains
// in-flight work. A bounded LRU keyed by (source content hash, canonical
// option key) caches complete synthesis responses, so repeat submissions
// are O(lookup).
package serve

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/flow"
	"repro/internal/isps"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// SynthesizeRequest is the POST /v1/synthesize body.
type SynthesizeRequest struct {
	// Name labels the source in diagnostics (default "input.isps").
	Name string `json:"name,omitempty"`
	// Source is the ISPS behavioral description. Required.
	Source string `json:"source"`
	// Options selects the allocator and its ablations.
	Options RequestOptions `json:"options,omitempty"`
	// Artifacts selects optional machine-readable outputs.
	Artifacts ArtifactRequest `json:"artifacts,omitempty"`
	// DeadlineMS bounds this request's synthesis wall time; the server
	// clamps it to its configured maximum. 0 means the server default.
	DeadlineMS int `json:"deadlineMs,omitempty"`
	// Timings includes the wall-time fields (per-stage pipeline timings and
	// per-phase synthesis statistics) in the response. They vary run to
	// run; without them the response is byte-deterministic.
	Timings bool `json:"timings,omitempty"`
	// NoCache bypasses the design cache for this request: the synthesis
	// always runs, and nothing is stored.
	NoCache bool `json:"noCache,omitempty"`
}

// RequestOptions is the JSON-expressible subset of flow.Options. It is
// fully canonicalizable (flow.Options.Cacheable holds for every value),
// which is what makes the design cache sound.
type RequestOptions struct {
	// Allocator: "daa" (default), "leftedge", or "naive".
	Allocator string `json:"allocator,omitempty"`
	// NoTraceRules skips the DAA's trace-refinement phase.
	NoTraceRules bool `json:"noTraceRules,omitempty"`
	// NoCleanup skips the DAA's global-improvement phase.
	NoCleanup bool `json:"noCleanup,omitempty"`
	// MaxOpsPerStep caps total operators per control step (0 = no cap).
	MaxOpsPerStep int `json:"maxOpsPerStep,omitempty"`
	// Provenance journals the run's rule firings and builds the
	// provenance index; the response carries a provenance summary and the
	// design becomes queryable through GET /v1/explain. DAA only: with a
	// baseline allocator the request is refused (400).
	Provenance bool `json:"provenance,omitempty"`
	// Verify runs the cosim stage — seeded stimulus through the behavioral
	// interpreter and the register-transfer simulator — and the response
	// carries the equivalence verdict. A mismatch is a verdict, not an
	// error: the response is still 200.
	Verify bool `json:"verify,omitempty"`
	// CosimSeed tunes the verify stimulus (0 = the flow default). Ignored
	// unless Verify is set.
	CosimSeed uint64 `json:"cosimSeed,omitempty"`
}

// flowOptions lowers the wire options onto the pipeline's option set.
func (o RequestOptions) flowOptions() (flow.Options, error) {
	alloc := o.Allocator
	if alloc == "" {
		alloc = flow.AllocDAA
	}
	switch alloc {
	case flow.AllocDAA:
	case flow.AllocLeftEdge, flow.AllocNaive:
		if o.Provenance {
			// Provenance indexes rule firings; a baseline fires none.
			return flow.Options{}, fmt.Errorf("provenance needs allocator %s: the %s allocator fires no rules", flow.AllocDAA, alloc)
		}
	default:
		return flow.Options{}, fmt.Errorf("unknown allocator %q (want %s, %s, or %s)",
			o.Allocator, flow.AllocDAA, flow.AllocLeftEdge, flow.AllocNaive)
	}
	return flow.Options{
		Allocator: alloc,
		Core: core.Options{
			Limits:            sched.Limits{MaxOpsPerStep: o.MaxOpsPerStep},
			DisableTraceRules: o.NoTraceRules,
			DisableCleanup:    o.NoCleanup,
			Journal:           o.Provenance,
		},
		Cosim:     o.Verify,
		CosimSeed: o.CosimSeed,
	}, nil
}

// ArtifactRequest selects the optional outputs of a synthesize call.
type ArtifactRequest struct {
	Verilog      bool `json:"verilog,omitempty"`      // structural Verilog of the datapath
	ControlTable bool `json:"controlTable,omitempty"` // per-state control-signal table
	Dot          bool `json:"dot,omitempty"`          // controller state graph as Graphviz
}

// key canonicalizes the artifact selection for the design-cache key.
func (a ArtifactRequest) key() string {
	return fmt.Sprintf("v=%t,ct=%t,dot=%t", a.Verilog, a.ControlTable, a.Dot)
}

// SynthesizeResponse is the success body of POST /v1/synthesize and of
// each batch item. Without Timings in the request, every field is a pure
// function of (source, options): responses are byte-deterministic and
// byte-identical to a local `daa` run's report section.
type SynthesizeResponse struct {
	Name      string         `json:"name"`
	Allocator string         `json:"allocator"`
	Counts    rtl.Counts     `json:"counts"`
	Cost      cost.Breakdown `json:"cost"`
	// Report is the human-readable structural summary, exactly the text
	// `daa` prints locally (design report, controller line, gate
	// equivalents).
	Report    string        `json:"report"`
	Artifacts *Artifacts    `json:"artifacts,omitempty"`
	Stats     *SynthStats   `json:"stats,omitempty"`  // with timings only
	Stages    []StageTiming `json:"stages,omitempty"` // with timings only
	// Provenance summarizes the effect journal when the request asked for
	// it; Key addresses the design in GET /v1/explain.
	Provenance *ProvenanceSummary `json:"provenance,omitempty"`
	// Equivalence is the cosim verdict when the request set options.verify.
	Equivalence *Equivalence `json:"equivalence,omitempty"`
}

// Equivalence is the behavioral-vs-RTL cosimulation verdict on the wire,
// mirroring flow.CosimReport. Deterministic for a given (source, options):
// it participates in the cached response bytes.
type Equivalence struct {
	Equivalent bool   `json:"equivalent"`
	Seed       uint64 `json:"seed"`
	Vectors    int    `json:"vectors"`
	Cycles     int    `json:"cycles"`
	Samples    int    `json:"samples"`
	Hung       int    `json:"hung,omitempty"`
	// Summary is the one-line human verdict, exactly flow.CosimReport.Summary.
	Summary  string               `json:"summary"`
	Mismatch *EquivalenceMismatch `json:"mismatch,omitempty"`
}

// EquivalenceMismatch is the counterexample behind a failed verdict.
type EquivalenceMismatch struct {
	Vector     int                `json:"vector"`
	Cycle      int                `json:"cycle"`
	Carrier    string             `json:"carrier,omitempty"`
	Addr       int                `json:"addr"` // -1 for non-memory carriers
	Behavioral uint64             `json:"behavioral"`
	Design     uint64             `json:"design"`
	Detail     string             `json:"detail,omitempty"`
	Inputs     []EquivalenceInput `json:"inputs,omitempty"`
}

// EquivalenceInput is one input-port value of a counterexample vector.
type EquivalenceInput struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// newEquivalence lowers a cosim report onto the wire shape.
func newEquivalence(rep *flow.CosimReport) *Equivalence {
	if rep == nil {
		return nil
	}
	out := &Equivalence{
		Equivalent: rep.Equivalent,
		Seed:       rep.Seed,
		Vectors:    rep.Vectors,
		Cycles:     rep.Cycles,
		Samples:    rep.Samples,
		Hung:       rep.Hung,
		Summary:    rep.Summary(),
	}
	if m := rep.Mismatch; m != nil {
		wm := &EquivalenceMismatch{
			Vector: m.Vector, Cycle: m.Cycle, Carrier: m.Carrier, Addr: m.Addr,
			Behavioral: m.Behavioral, Design: m.Design, Detail: m.Detail,
		}
		for _, in := range m.Inputs {
			wm.Inputs = append(wm.Inputs, EquivalenceInput{Name: in.Name, Value: in.Value})
		}
		out.Mismatch = wm
	}
	return out
}

// CosimReport rebuilds the flow-layer report from the wire verdict, so
// remote clients (daa -remote -verify) render the same verdict block as
// local runs.
func (e *Equivalence) CosimReport() *flow.CosimReport {
	if e == nil {
		return nil
	}
	rep := &flow.CosimReport{
		Equivalent: e.Equivalent,
		Seed:       e.Seed,
		Vectors:    e.Vectors,
		Cycles:     e.Cycles,
		Samples:    e.Samples,
		Hung:       e.Hung,
	}
	if m := e.Mismatch; m != nil {
		fm := &flow.CosimMismatch{
			Vector: m.Vector, Cycle: m.Cycle, Carrier: m.Carrier, Addr: m.Addr,
			Behavioral: m.Behavioral, Design: m.Design, Detail: m.Detail,
		}
		for _, in := range m.Inputs {
			fm.Inputs = append(fm.Inputs, flow.CosimInput{Name: in.Name, Value: in.Value})
		}
		rep.Mismatch = fm
	}
	return rep
}

// ProvenanceSummary is the journal's wire summary: the explain key plus
// the journal's size.
type ProvenanceSummary struct {
	Key        string `json:"key"`
	Components int    `json:"components"`
	Firings    int    `json:"firings"`
	Effects    int    `json:"effects"`
}

// ExplainResponse is the GET /v1/explain body: the firing history of the
// selected components, rendered by the same core.Provenance.Explain that
// backs daa -explain.
type ExplainResponse struct {
	Design   string `json:"design"`
	Selector string `json:"selector,omitempty"`
	Matched  int    `json:"matched"`
	Text     string `json:"text"`
}

// Artifacts carries the optional machine-readable outputs.
type Artifacts struct {
	Verilog      string `json:"verilog,omitempty"`
	ControlTable string `json:"controlTable,omitempty"`
	Dot          string `json:"dot,omitempty"`
}

// SynthStats summarizes the DAA's rule-firing statistics (absent for the
// baseline allocators).
type SynthStats struct {
	TotalFirings    int          `json:"totalFirings"`
	TotalMatchCalls int          `json:"totalMatchCalls"`
	TotalCycles     int          `json:"totalCycles"` // recognize-act cycles of this request's engines
	ElapsedMS       float64      `json:"elapsedMs"`
	Phases          []PhaseStats `json:"phases"`
}

// PhaseStats is one synthesis phase's share of SynthStats.
type PhaseStats struct {
	Name       string  `json:"name"`
	Rules      int     `json:"rules"`
	Firings    int     `json:"firings"`
	Cycles     int     `json:"cycles"`
	WMPeak     int     `json:"wmPeak"`
	MatchCalls int     `json:"matchCalls"`
	ElapsedMS  float64 `json:"elapsedMs"`
}

// StageTiming is one pipeline stage's wall time.
type StageTiming struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsedMs"`
	Cached    bool    `json:"cached,omitempty"`
	Note      string  `json:"note,omitempty"`
}

// Error kinds, the machine-readable classification of ErrorResponse.
const (
	KindRequest  = "request"  // malformed or oversized request (4xx)
	KindInput    = "input"    // the ISPS source was rejected, with diagnostics
	KindDeadline = "deadline" // the per-request deadline expired mid-synthesis
	KindCanceled = "canceled" // the client went away; synthesis was interrupted
	KindOverload = "overload" // admission queue full; retry later
	KindShutdown = "shutdown" // the server is draining
	KindInternal = "internal" // synthesis failed unexpectedly (or panicked)
	// KindUnavailable is emitted by cluster coordinators (internal/cluster)
	// when no ready worker can take the request: the ring is empty or every
	// failover candidate failed at the transport level.
	KindUnavailable = "unavailable"
)

// ErrorResponse is the error body of every endpoint.
type ErrorResponse struct {
	Error       string       `json:"error"`
	Kind        string       `json:"kind"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	RequestID   string       `json:"requestId,omitempty"`
}

// Diagnostic is one positioned input error, mirroring flow.Diagnostic.
type Diagnostic struct {
	File    string `json:"file,omitempty"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
	Stage   string `json:"stage"`
	Msg     string `json:"msg"`
	SrcLine string `json:"srcLine,omitempty"`
}

// wireDiagnostics lowers flow diagnostics onto the wire shape.
func wireDiagnostics(dl flow.DiagnosticList) []Diagnostic {
	var out []Diagnostic
	for _, d := range dl {
		out = append(out, Diagnostic{
			File: d.Pos.File, Line: d.Pos.Line, Col: d.Pos.Col,
			Stage: d.Stage, Msg: d.Msg, SrcLine: d.SrcLine,
		})
	}
	return out
}

// FlowDiagnostic converts a wire diagnostic back into a flow.Diagnostic,
// so remote clients (daa -remote) render carets exactly like local runs.
func (d Diagnostic) FlowDiagnostic() *flow.Diagnostic {
	return &flow.Diagnostic{
		Stage:   d.Stage,
		Pos:     isps.Pos{File: d.File, Line: d.Line, Col: d.Col},
		Msg:     d.Msg,
		SrcLine: d.SrcLine,
	}
}

// Err turns an error body back into a local error. Input diagnostics
// become a flow.DiagnosticList, so a remote client renders the carets and
// exits like a local run; anything else is an error naming the kind.
func (e *ErrorResponse) Err() error {
	if e.Kind == KindInput && len(e.Diagnostics) > 0 {
		dl := make(flow.DiagnosticList, len(e.Diagnostics))
		for i, d := range e.Diagnostics {
			dl[i] = d.FlowDiagnostic()
		}
		return dl
	}
	return fmt.Errorf("%s (%s)", e.Error, e.Kind)
}

// LintRequest is the POST /v1/lint body: semantic lint over one ISPS
// source (the same checks as `ispsfmt -lint`), optionally alongside a lint
// of the embedded synthesis rule base (the same checks as
// `daa -lint-rules`). At least one of Source/Rules must be supplied.
type LintRequest struct {
	// Name labels the source in finding positions (default "input.isps").
	Name string `json:"name,omitempty"`
	// Source is the ISPS behavioral description to lint. Optional when
	// Rules is set.
	Source string `json:"source,omitempty"`
	// Rules additionally lints the embedded 48-rule knowledge base, each
	// phase's rules registered over its declared working memory.
	Rules bool `json:"rules,omitempty"`
}

// LintResponse is the POST /v1/lint success body. Findings are a verdict,
// not an error: a dirty source still answers 200. (Sources that fail
// parse/sema never reach the linter and answer 422 with diagnostics, like
// /v1/synthesize.) The body is a pure function of the request: responses
// are byte-deterministic.
type LintResponse struct {
	Name string `json:"name,omitempty"`
	// Clean reports that neither layer produced findings.
	Clean bool `json:"clean"`
	// Findings are the source-lint findings with positions; each carries
	// the offending source line for caret rendering, exactly the shape
	// `ispsfmt -lint` prints locally.
	Findings []Diagnostic `json:"findings,omitempty"`
	// RuleBase reports on the embedded rule base when the request asked.
	RuleBase *RuleBaseLint `json:"ruleBase,omitempty"`
}

// RuleBaseLint summarizes a knowledge-base lint pass.
type RuleBaseLint struct {
	Rules    int               `json:"rules"`
	Phases   int               `json:"phases"`
	Findings []RuleBaseFinding `json:"findings,omitempty"`
}

// RuleBaseFinding is one rule-lint finding on the wire.
type RuleBaseFinding struct {
	Phase string `json:"phase"`
	Rule  string `json:"rule"`
	Code  string `json:"code"`
	Msg   string `json:"msg"`
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Requests []SynthesizeRequest `json:"requests"`
}

// MaxBatch bounds the sources of one batch request.
const MaxBatch = 256

// Check refuses an empty batch or one of more than MaxBatch sources with
// 400. Daemons and cluster coordinators apply the same rule.
func (b BatchRequest) Check() error {
	switch n := len(b.Requests); {
	case n == 0:
		return badRequest("batch carries no requests")
	case n > MaxBatch:
		return badRequest(fmt.Sprintf("batch of %d exceeds the %d-source limit", n, MaxBatch))
	}
	return nil
}

// BatchResponse carries one item per request, in input order. Exactly one
// of Result/Error is set per item.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// BatchItem is one batch result slot.
type BatchItem struct {
	Result *SynthesizeResponse `json:"result,omitempty"`
	Error  *ErrorResponse      `json:"error,omitempty"`
}

// HealthResponse is the GET /v1/healthz body. Plain /v1/healthz is the
// liveness probe (200 while the process serves, draining included);
// /v1/healthz?ready=1 is the readiness probe (503 while draining or
// before warmup) — the signal cluster routers key ring membership on.
type HealthResponse struct {
	Status     string `json:"status"` // "ok", "warming", or "draining"
	Ready      bool   `json:"ready"`
	Worker     string `json:"worker,omitempty"` // Config.ID when set
	InFlight   int64  `json:"inFlight"`
	QueueDepth int64  `json:"queueDepth"`
}

// newSynthStats lowers core.Stats onto the wire shape.
func newSynthStats(st core.Stats) *SynthStats {
	out := &SynthStats{
		TotalFirings:    st.TotalFirings,
		TotalMatchCalls: st.TotalMatchCalls,
		TotalCycles:     st.TotalCycles,
		ElapsedMS:       ms(st.Elapsed),
	}
	for _, ph := range st.Phases {
		out.Phases = append(out.Phases, PhaseStats{
			Name:       ph.Name,
			Rules:      ph.Rules,
			Firings:    ph.Firings,
			Cycles:     ph.Cycles,
			WMPeak:     ph.WMPeak,
			MatchCalls: ph.Engine.MatchCalls,
			ElapsedMS:  ms(ph.Elapsed),
		})
	}
	return out
}

// newStageTimings lowers a flow.Trace onto the wire shape.
func newStageTimings(tr flow.Trace) []StageTiming {
	out := make([]StageTiming, 0, len(tr.Stages))
	for _, s := range tr.Stages {
		out = append(out, StageTiming{
			Name: s.Stage, ElapsedMS: ms(s.Elapsed), Cached: s.Cached, Note: s.Note,
		})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
