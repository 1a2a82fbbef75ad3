package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/serve"
)

// The verify-cold caches are bounded small, and set-up submits more
// unique requests than the largest bound (the explain store's fixed 64),
// so every timed op evicts exactly one entry from each.
const (
	coldDesignEntries = 8
	coldFrontEntries  = 8
	coldWarmRequests  = serve.DefaultExplainCacheEntries + 8
)

// newVerifyCold is the verify-cold workload: one connection posts ibm370
// straight to one serve worker with verify, provenance and Verilog, under
// a name no earlier request used, so the front-end cache, the design cache
// and the explain store all miss while the work per op stays the same.
// The seed picks the names.
func newVerifyCold(seed int64) (workload, error) {
	src, err := bench.Source("ibm370")
	if err != nil {
		return workload{}, err
	}
	golden, err := goldenVerilog("ibm370")
	if err != nil {
		return workload{}, err
	}
	prefix := fmt.Sprintf("ibm370-%016x", rand.New(rand.NewSource(seed)).Uint64())
	seq := new(int) // shared by every set-up, so names never repeat
	return workload{callers: 1, setup: func(ctx context.Context, tracing *atomic.Bool) (instance, error) {
		b := &coldBench{source: src, golden: golden, prefix: prefix, seq: seq, tracing: tracing, client: newClient(1)}
		flow.ResetCache()
		s := serve.New(serve.Config{
			CacheEntries:      coldDesignEntries,
			FrontCacheEntries: coldFrontEntries,
			Logger:            discard(),
		})
		b.ts = httptest.NewServer(timedHandler(s.Handler(), tracing, &b.handlerNS, &b.handlerN))
		for i := 0; i < coldWarmRequests; i++ {
			if _, _, err := b.synthesize(ctx, false); err != nil {
				b.close()
				return nil, fmt.Errorf("warming request %d: %w", i, err)
			}
		}
		return b, nil
	}}, nil
}

type coldBench struct {
	source, golden, prefix string
	seq                    *int
	tracing                *atomic.Bool
	client                 *http.Client
	ts                     *httptest.Server

	handlerNS, handlerN atomic.Int64 // handler time of traced requests
	layers              tally

	start      serve.MetricsResponse
	frontStart flow.CacheStats
}

type coldRequest struct {
	Name      string                `json:"name"`
	Source    string                `json:"source"`
	Options   serve.RequestOptions  `json:"options"`
	Artifacts serve.ArtifactRequest `json:"artifacts"`
	Timings   bool                  `json:"timings,omitempty"`
}

// synthesize posts the next uniquely named request and checks the answer:
// a cache miss, an equivalent cosim verdict, and the golden Verilog.
func (b *coldBench) synthesize(ctx context.Context, timings bool) (*serve.SynthesizeResponse, time.Duration, error) {
	*b.seq++
	body, err := json.Marshal(coldRequest{
		Name:      fmt.Sprintf("%s-%08d.isps", b.prefix, *b.seq),
		Source:    b.source,
		Options:   serve.RequestOptions{Verify: true, Provenance: true},
		Artifacts: serve.ArtifactRequest{Verilog: true},
		Timings:   timings,
	})
	if err != nil {
		return nil, 0, err
	}
	resp, raw, lat, err := post(ctx, b.client, b.ts.URL, body)
	if err != nil {
		return nil, lat, err
	}
	if c := resp.Header.Get("X-DAAD-Cache"); c != "miss" {
		return nil, lat, fmt.Errorf("cache %q, want miss", c)
	}
	var out serve.SynthesizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, lat, err
	}
	switch {
	case out.Equivalence == nil || !out.Equivalence.Equivalent:
		return nil, lat, fmt.Errorf("cosim verdict not equivalent: %+v", out.Equivalence)
	case out.Artifacts == nil || out.Artifacts.Verilog != b.golden:
		return nil, lat, fmt.Errorf("Verilog differs from the ibm370 golden")
	}
	return &out, lat, nil
}

func (b *coldBench) begin(ctx context.Context) error {
	b.frontStart = flow.FrontCacheStats()
	return getJSON(ctx, b.client, b.ts.URL+"/v1/metrics", &b.start)
}

func (b *coldBench) op(ctx context.Context, _ int, traced bool) (time.Duration, error) {
	out, lat, err := b.synthesize(ctx, traced)
	if err != nil || !traced {
		return lat, err
	}
	vals := map[string]float64{}
	stages := 0.0
	for _, s := range out.Stages {
		addStage(vals, s.Name, s.ElapsedMS)
		stages += s.ElapsedMS
	}
	vals["stages_ms"] = stages
	for _, ph := range out.Stats.Phases {
		vals["core."+ph.Name+"_ms"] = ph.ElapsedMS
	}
	vals["prod.firings"] = float64(out.Stats.TotalFirings)
	vals["prod.cycles"] = float64(out.Stats.TotalCycles)
	vals["prod.pattern_tests"] = float64(out.Stats.TotalMatchCalls)
	b.layers.add(vals)
	return lat, nil
}

// finish checks that every timed op evicted exactly one entry from each
// cache, and derives the handler's own time and the Rete counts per op.
func (b *coldBench) finish(ctx context.Context, ops int) (map[string]float64, error) {
	var m serve.MetricsResponse
	if err := getJSON(ctx, b.client, b.ts.URL+"/v1/metrics", &m); err != nil {
		return nil, err
	}
	front := flow.FrontCacheStats()
	n := float64(ops)
	vals := b.layers.means()
	vals["serve.handler_self_ms"] = ms(time.Duration(b.handlerNS.Load()))/float64(b.handlerN.Load()) - vals["stages_ms"]
	synthesized := float64(m.Engine.Synthesized - b.start.Engine.Synthesized)
	vals["prod.join_tests"] = float64(m.Engine.JoinTests-b.start.Engine.JoinTests) / synthesized
	vals["prod.token_asserts"] = float64(m.Engine.TokenAsserts-b.start.Engine.TokenAsserts) / synthesized
	evictions := map[string]int64{
		"serve.design_evictions_per_op":  m.DesignCache.Evictions - b.start.DesignCache.Evictions,
		"flow.front_evictions_per_op":    front.Evictions - b.frontStart.Evictions,
		"serve.explain_evictions_per_op": m.ExplainCache.Evictions - b.start.ExplainCache.Evictions,
	}
	var err error
	for name, e := range evictions {
		vals[name] = float64(e) / n
		if e != int64(ops) && err == nil {
			err = fmt.Errorf("verify-cold: %s: %d evictions in %d ops", name, e, ops)
		}
	}
	if m.FlowCache.Evictions != front.Evictions {
		err = fmt.Errorf("verify-cold: /v1/metrics reports %d front-end evictions, flow %d", m.FlowCache.Evictions, front.Evictions)
	}
	return vals, err
}

func (b *coldBench) close() {
	b.client.CloseIdleConnections()
	if b.ts != nil {
		b.ts.Close()
	}
}
