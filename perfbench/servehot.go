package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/serve"
)

// hotCallers is the number of client connections of serve-hot.
const hotCallers = 2

// newServeHot is the serve-hot workload: two keep-alive connections post
// the nine embedded benchmarks through an in-process cluster coordinator
// over two serve workers. Caller c owns the designs at alphabetical
// positions c, c+2, ... and walks them in a seeded shuffled order, so the
// two never post the same design at once: the coordinator would coalesce
// them, and the follower's latency would form a second mode. Set-up warms
// every design, so every timed op is a design-cache hit whose body must
// equal the set-up body byte for byte.
func newServeHot(seed int64) (workload, error) {
	var reqs [][]byte
	for _, name := range bench.Names() {
		src, err := bench.Source(name)
		if err != nil {
			return workload{}, err
		}
		body, err := json.Marshal(serve.SynthesizeRequest{Name: name + ".isps", Source: src})
		if err != nil {
			return workload{}, err
		}
		reqs = append(reqs, body)
	}
	return workload{callers: hotCallers, setup: func(ctx context.Context, tracing *atomic.Bool) (instance, error) {
		b := &hotBench{reqs: reqs, tracing: tracing, client: newClient(hotCallers)}
		if err := b.start(ctx); err != nil {
			b.close()
			return nil, err
		}
		for c := 0; c < hotCallers; c++ {
			hc := &hotCaller{rng: rand.New(rand.NewSource(seed*hotCallers + int64(c)))}
			for d := c; d < len(reqs); d += hotCallers {
				hc.designs = append(hc.designs, d)
			}
			b.callers = append(b.callers, hc)
		}
		return b, nil
	}}, nil
}

type hotBench struct {
	reqs    [][]byte
	want    [][]byte // set-up response body per design
	tracing *atomic.Bool
	client  *http.Client

	workers []*httptest.Server
	co      *cluster.Coordinator
	front   *httptest.Server
	callers []*hotCaller

	// Handler time of traced synthesize requests.
	coordNS, coordN, workerNS, workerN atomic.Int64
	layers                             tally

	workerStart []serve.MetricsResponse
	coordStart  cluster.MetricsResponse
}

// hotCaller walks its designs in a fresh shuffled order each round.
type hotCaller struct {
	rng     *rand.Rand
	designs []int
	order   []int
}

func (c *hotCaller) next() int {
	if len(c.order) == 0 {
		for _, i := range c.rng.Perm(len(c.designs)) {
			c.order = append(c.order, c.designs[i])
		}
	}
	d := c.order[0]
	c.order = c.order[1:]
	return d
}

func discard() *log.Logger { return log.New(io.Discard, "", 0) }

// start brings up two workers and the coordinator on loopback, from a
// cold front-end cache, and warms every design through the coordinator.
func (b *hotBench) start(ctx context.Context) error {
	flow.ResetCache()
	var peers []cluster.Peer
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("w%d", i)
		s := serve.New(serve.Config{ID: id, Logger: discard()})
		ts := httptest.NewServer(timedHandler(s.Handler(), b.tracing, &b.workerNS, &b.workerN))
		b.workers = append(b.workers, ts)
		peers = append(peers, cluster.Peer{ID: id, URL: ts.URL})
	}
	co, err := cluster.New(cluster.Config{Peers: peers, Logger: discard()})
	if err != nil {
		return err
	}
	b.co = co
	co.Start(ctx)
	if n := co.Ring().Len(); n != len(peers) {
		return fmt.Errorf("ring has %d of %d workers", n, len(peers))
	}
	b.front = httptest.NewServer(timedHandler(co.Handler(), b.tracing, &b.coordNS, &b.coordN))
	for i, req := range b.reqs {
		resp, body, _, err := post(ctx, b.client, b.front.URL, req)
		if err != nil {
			return fmt.Errorf("warming design %d: %w", i, err)
		}
		if c := resp.Header.Get("X-DAAD-Cache"); c != "miss" {
			return fmt.Errorf("warming design %d: cache %q, want miss", i, c)
		}
		b.want = append(b.want, body)
	}
	return nil
}

func (b *hotBench) begin(ctx context.Context) error {
	b.workerStart = make([]serve.MetricsResponse, len(b.workers))
	for i, w := range b.workers {
		if err := getJSON(ctx, b.client, w.URL+"/v1/metrics", &b.workerStart[i]); err != nil {
			return err
		}
	}
	return getJSON(ctx, b.client, b.front.URL+"/v1/metrics", &b.coordStart)
}

func (b *hotBench) op(ctx context.Context, caller int, traced bool) (time.Duration, error) {
	d := b.callers[caller].next()
	resp, body, lat, err := post(ctx, b.client, b.front.URL, b.reqs[d])
	if err != nil {
		return lat, err
	}
	if c := resp.Header.Get("X-DAAD-Cache"); c != "hit" {
		return lat, fmt.Errorf("design %d: cache %q, want hit", d, c)
	}
	if !bytes.Equal(body, b.want[d]) {
		return lat, fmt.Errorf("design %d: body differs from the set-up body", d)
	}
	if traced {
		b.layers.add(map[string]float64{
			"client_ms":     ms(lat),
			"serve.body_kb": float64(len(body)) / 1024,
		})
	}
	return lat, nil
}

// finish splits the traced latency into client transport, coordinator
// self time and worker handler time, and checks that the timed phase hit
// the design cache on every op without a failover.
func (b *hotBench) finish(ctx context.Context, ops int) (map[string]float64, error) {
	var hits, misses int64
	for i, w := range b.workers {
		var m serve.MetricsResponse
		if err := getJSON(ctx, b.client, w.URL+"/v1/metrics", &m); err != nil {
			return nil, err
		}
		hits += m.DesignCache.Hits - b.workerStart[i].DesignCache.Hits
		misses += m.DesignCache.Misses - b.workerStart[i].DesignCache.Misses
	}
	var cm cluster.MetricsResponse
	if err := getJSON(ctx, b.client, b.front.URL+"/v1/metrics", &cm); err != nil {
		return nil, err
	}
	vals := b.layers.means()
	coord := ms(time.Duration(b.coordNS.Load())) / float64(b.coordN.Load())
	worker := ms(time.Duration(b.workerNS.Load())) / float64(b.workerN.Load())
	vals["serve.handler_ms"] = worker
	vals["cluster.self_ms"] = coord - worker
	vals["client.transport_ms"] = vals["client_ms"] - coord
	vals["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	vals["cluster.coalesced"] = float64(cm.Coalesced - b.coordStart.Coalesced)
	vals["cluster.failovers"] = float64(cm.Failovers - b.coordStart.Failovers)
	switch {
	case misses != 0:
		return vals, fmt.Errorf("serve-hot: %d design-cache misses in the timed phase", misses)
	case cm.Failovers != b.coordStart.Failovers:
		return vals, fmt.Errorf("serve-hot: %d failovers in the timed phase", cm.Failovers-b.coordStart.Failovers)
	}
	return vals, nil
}

func (b *hotBench) close() {
	b.client.CloseIdleConnections()
	if b.front != nil {
		b.front.Close()
	}
	if b.co != nil {
		b.co.Shutdown(context.Background())
	}
	for _, w := range b.workers {
		w.Close()
	}
}
