package exp

import (
	"context"
	"encoding/json"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/rtl"
)

// JSONPhase is one synthesis phase of a JSONResult.
type JSONPhase struct {
	Name        string  `json:"name"`
	Rules       int     `json:"rules"`
	Firings     int     `json:"firings"`
	Cycles      int     `json:"cycles"`
	WMPeak      int     `json:"wmPeak"`
	MatchCalls  int     `json:"matchCalls"`
	MatchTimeMS float64 `json:"matchTimeMs"`
	Deltas      int     `json:"deltas"`
	Rebuilds    int     `json:"rebuilds"`
	CSPeak      int     `json:"conflictPeak"`
	ElapsedMS   float64 `json:"elapsedMs"`
	// Rete network activity for the phase (zero under -exhaustive).
	AlphaEvals    int `json:"alphaEvals,omitempty"`
	JoinTests     int `json:"joinTests,omitempty"`
	TokenAsserts  int `json:"tokenAsserts,omitempty"`
	TokenRetracts int `json:"tokenRetracts,omitempty"`
}

// JSONStage is one pipeline stage of a JSONResult: where the compile
// spent its wall time, and whether the stage was served from the flow
// artifact cache.
type JSONStage struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsedMs"`
	Cached    bool    `json:"cached,omitempty"`
	Note      string  `json:"note,omitempty"`
}

// JSONCache reports how this compilation's front-end stages were served:
// Hits counts stages satisfied from the flow artifact cache, Misses the
// stages that had to run, so cache efficacy is visible per benchmark in
// the recorded bench artifacts.
type JSONCache struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// JSONResult is the machine-readable synthesis record for one benchmark:
// the component counts and the engine cost figures whose trajectory CI
// tracks across commits (BENCH_*.json).
type JSONResult struct {
	Bench       string      `json:"bench"`
	Ops         int         `json:"ops"`
	Counts      rtl.Counts  `json:"counts"`
	Firings     int         `json:"firings"`
	MatchCalls  int         `json:"matchCalls"`
	MatchTimeMS float64     `json:"matchTimeMs"`
	ElapsedMS   float64     `json:"elapsedMs"`
	Phases      []JSONPhase `json:"phases"`
	Stages      []JSONStage `json:"stages"`
	FlowCache   JSONCache   `json:"flowCache"`
	// Equivalent is the cosim verdict under -verify (nil otherwise); the
	// emit and cosim stage timings appear in Stages like any other stage.
	Equivalent *bool `json:"equivalent,omitempty"`
}

// JSONResults synthesizes every embedded benchmark — in parallel across
// the flow worker pool — and collects one JSONResult each, in bench.Names
// order regardless of completion order.
func JSONResults(ctx context.Context) ([]JSONResult, error) {
	return JSONResultsOpts(ctx, core.Options{}, false)
}

// JSONResultsOpts is JSONResults with engine options, so CI can record an
// exhaustive baseline next to the default full-Rete run and diff pattern
// tests and match time between matchers. With verify, every
// benchmark additionally runs the emit and cosim stages and the record
// carries the equivalence verdict plus their stage timings.
func JSONResultsOpts(ctx context.Context, copt core.Options, verify bool) ([]JSONResult, error) {
	names := bench.Names()
	out := make([]JSONResult, len(names))
	err := flow.RunAll(ctx, len(names), func(ctx context.Context, i int) error {
		d, err := e3flow(ctx, names[i], flow.Options{Core: copt, EmitVerilog: verify, Cosim: verify})
		if err != nil {
			return err
		}
		r := JSONResult{
			Bench:       d.Bench,
			Ops:         d.TraceOp,
			Firings:     d.Stats.TotalFirings,
			MatchCalls:  d.Stats.TotalMatchCalls,
			MatchTimeMS: float64(d.Stats.EngineMetrics().MatchTime.Microseconds()) / 1000,
			ElapsedMS:   float64(d.Stats.Elapsed.Microseconds()) / 1000,
		}
		for _, ph := range d.Stats.Phases {
			r.Counts = ph.Counts // counts after the last phase run
			r.Phases = append(r.Phases, JSONPhase{
				Name:          ph.Name,
				Rules:         ph.Rules,
				Firings:       ph.Firings,
				Cycles:        ph.Cycles,
				WMPeak:        ph.WMPeak,
				MatchCalls:    ph.Engine.MatchCalls,
				MatchTimeMS:   float64(ph.Engine.MatchTime.Microseconds()) / 1000,
				Deltas:        ph.Engine.Deltas,
				Rebuilds:      ph.Engine.Rebuilds,
				CSPeak:        ph.Engine.ConflictPeak,
				ElapsedMS:     float64(ph.Elapsed.Microseconds()) / 1000,
				AlphaEvals:    ph.Engine.AlphaEvals,
				JoinTests:     ph.Engine.JoinTests,
				TokenAsserts:  ph.Engine.TokenAsserts,
				TokenRetracts: ph.Engine.TokenRetracts,
			})
		}
		for _, st := range d.Flow.Stages {
			r.Stages = append(r.Stages, JSONStage{
				Name:      st.Stage,
				ElapsedMS: float64(st.Elapsed.Microseconds()) / 1000,
				Cached:    st.Cached,
				Note:      st.Note,
			})
			if st.Cached {
				r.FlowCache.Hits++
			} else if st.Stage == flow.StageParse || st.Stage == flow.StageSema || st.Stage == flow.StageBuild {
				r.FlowCache.Misses++
			}
		}
		if d.Cosim != nil {
			eq := d.Cosim.Equivalent
			r.Equivalent = &eq
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteJSON emits the per-benchmark results as indented JSON, the format
// cmd/daabench -json prints for CI recording. The document-level flowCache
// block reports the artifact cache's process-wide hit/miss/eviction
// counters after the suite ran.
func WriteJSON(ctx context.Context, w io.Writer) error {
	return WriteJSONOpts(ctx, w, core.Options{}, false)
}

// WriteJSONOpts is WriteJSON with engine options (daabench -json
// -exhaustive records the exhaustive-matcher baseline; -json -verify adds
// the cosim verdict and the emit/cosim stage timings).
func WriteJSONOpts(ctx context.Context, w io.Writer, copt core.Options, verify bool) error {
	results, err := JSONResultsOpts(ctx, copt, verify)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Results   []JSONResult    `json:"results"`
		FlowCache flow.CacheStats `json:"flowCache"`
	}{results, flow.FrontCacheStats()})
}
