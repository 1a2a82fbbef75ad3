package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flow"
	"repro/internal/serve"
)

// coordMetrics is the router's counter set, all lock-free atomics.
// Per-peer counters (requests, failovers, cache hits) live on peerState.
type coordMetrics struct {
	synthesize atomic.Int64
	batch      atomic.Int64
	batchItems atomic.Int64
	lint       atomic.Int64
	explore    atomic.Int64
	explain    atomic.Int64
	healthz    atomic.Int64
	metricsReq atomic.Int64
	clusterReq atomic.Int64
	// coalesced counts requests that rode another request's upstream call
	// instead of forwarding their own.
	coalesced atomic.Int64

	failovers   atomic.Int64 // candidate hops past a failed peer
	unrouted    atomic.Int64 // requests no candidate could take
	transitions atomic.Int64 // ring membership changes
}

// HealthResponse is the coordinator's GET /v1/healthz body. Readiness
// (?ready=1) fails while draining or while the ring is empty.
type HealthResponse struct {
	Status     string `json:"status"` // "ok", "no-workers", or "draining"
	Ready      bool   `json:"ready"`
	Role       string `json:"role"` // always "coordinator"
	PeersUp    int    `json:"peersUp"`
	PeersKnown int    `json:"peersKnown"`
}

// MetricsResponse is the coordinator's GET /v1/metrics body: the router
// rollup. Cheap by construction — no worker round trips; /v1/cluster is
// the endpoint that scrapes the workers.
type MetricsResponse struct {
	UptimeMS    float64              `json:"uptimeMs"`
	Requests    RequestCounts        `json:"requests"`
	Responses   serve.ResponseCounts `json:"responses"`
	Failovers   int64                `json:"failovers"`
	Unrouted    int64                `json:"unrouted"`
	Coalesced   int64                `json:"coalesced"`
	Transitions int64                `json:"ringTransitions"`
	Ring        RingInfo             `json:"ring"`
	Peers       []PeerMetrics        `json:"peers"`
}

// RequestCounts breaks coordinator requests down by endpoint.
type RequestCounts struct {
	Synthesize int64 `json:"synthesize"`
	Batch      int64 `json:"batch"`
	BatchItems int64 `json:"batchItems"`
	Lint       int64 `json:"lint"`
	Explore    int64 `json:"explore"`
	Explain    int64 `json:"explain"`
	Healthz    int64 `json:"healthz"`
	Metrics    int64 `json:"metrics"`
	Cluster    int64 `json:"cluster"`
}

// RingInfo describes the live ring.
type RingInfo struct {
	Members []string `json:"members"`
	Vnodes  int      `json:"vnodesPerMember"`
}

// PeerMetrics is one worker's router-side view: probe state plus the
// forwarding counters, including the shard cache heat observed from
// X-DAAD-Cache response headers.
type PeerMetrics struct {
	ID          string  `json:"id"`
	URL         string  `json:"url"`
	Up          bool    `json:"up"`
	ProbeOK     int64   `json:"probeOk"`
	ProbeFail   int64   `json:"probeFail"`
	Requests    int64   `json:"requests"`
	Failovers   int64   `json:"failovers"`
	CacheHits   int64   `json:"cacheHits"`
	CacheMisses int64   `json:"cacheMisses"`
	HitRate     float64 `json:"hitRate"` // hits / (hits+misses), 0 when idle
}

// PeerStatus extends PeerMetrics with the worker's own scraped metrics —
// the authoritative per-shard design-cache stats — for GET /v1/cluster.
type PeerStatus struct {
	PeerMetrics
	// Worker is scraped from the peer's /v1/metrics; nil when the peer is
	// down or the scrape failed.
	Worker *WorkerStatus `json:"worker,omitempty"`
}

// WorkerStatus is the slice of a worker's /v1/metrics the cluster status
// reports: cache heat and load.
type WorkerStatus struct {
	DesignCache flow.CacheStats `json:"designCache"`
	HitRate     float64         `json:"hitRate"`
	InFlight    int64           `json:"inFlight"`
	QueueDepth  int64           `json:"queueDepth"`
	Synthesized int64           `json:"synthesized"`
}

// StatusResponse is the GET /v1/cluster body: membership, ring, and
// per-shard cache heat.
type StatusResponse struct {
	Ring        RingInfo     `json:"ring"`
	Failovers   int64        `json:"failovers"`
	Unrouted    int64        `json:"unrouted"`
	Transitions int64        `json:"ringTransitions"`
	Peers       []PeerStatus `json:"peers"`
}

// Metrics snapshots the router rollup.
func (co *Coordinator) Metrics() MetricsResponse {
	m := &co.met
	ring := co.ring.Load()
	out := MetricsResponse{
		UptimeMS: float64(time.Since(co.start).Microseconds()) / 1000,
		Requests: RequestCounts{
			Synthesize: m.synthesize.Load(),
			Batch:      m.batch.Load(),
			BatchItems: m.batchItems.Load(),
			Lint:       m.lint.Load(),
			Explore:    m.explore.Load(),
			Explain:    m.explain.Load(),
			Healthz:    m.healthz.Load(),
			Metrics:    m.metricsReq.Load(),
			Cluster:    m.clusterReq.Load(),
		},
		Responses:   co.frame.Responses(),
		Failovers:   m.failovers.Load(),
		Unrouted:    m.unrouted.Load(),
		Coalesced:   m.coalesced.Load(),
		Transitions: m.transitions.Load(),
		Ring:        RingInfo{Members: ring.Members(), Vnodes: ringVnodes},
	}
	for _, p := range co.peers {
		out.Peers = append(out.Peers, p.metrics())
	}
	return out
}

func (p *peerState) metrics() PeerMetrics {
	hits, misses := p.cacheHits.Load(), p.cacheMisses.Load()
	return PeerMetrics{
		ID:          p.id,
		URL:         p.base,
		Up:          p.up.Load(),
		ProbeOK:     p.probeOK.Load(),
		ProbeFail:   p.probeFail.Load(),
		Requests:    p.requests.Load(),
		Failovers:   p.failovers.Load(),
		CacheHits:   hits,
		CacheMisses: misses,
		HitRate:     rate(hits, hits+misses),
	}
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	co.met.metricsReq.Add(1)
	co.frame.WriteJSON(w, http.StatusOK, co.Metrics())
}

// handleCluster renders membership plus per-shard cache heat, scraping
// each up peer's /v1/metrics concurrently with the probe timeout.
func (co *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	co.met.clusterReq.Add(1)
	ring := co.ring.Load()
	out := StatusResponse{
		Ring:        RingInfo{Members: ring.Members(), Vnodes: ringVnodes},
		Failovers:   co.met.failovers.Load(),
		Unrouted:    co.met.unrouted.Load(),
		Transitions: co.met.transitions.Load(),
		Peers:       make([]PeerStatus, len(co.peers)),
	}
	var wg sync.WaitGroup
	for i, p := range co.peers {
		out.Peers[i] = PeerStatus{PeerMetrics: p.metrics()}
		if !p.up.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, p *peerState) {
			defer wg.Done()
			out.Peers[i].Worker = co.scrapeWorker(p)
		}(i, p)
	}
	wg.Wait()
	co.frame.WriteJSON(w, http.StatusOK, out)
}

// scrapeWorker fetches one worker's /v1/metrics and keeps the
// cluster-relevant slice. Failures yield nil: status must render even
// when a worker dies mid-scrape.
func (co *Coordinator) scrapeWorker(p *peerState) *WorkerStatus {
	resp, err := co.probeClient.Get(p.base + "/v1/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	var m serve.MetricsResponse
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil
	}
	return &WorkerStatus{
		DesignCache: m.DesignCache,
		HitRate:     rate(m.DesignCache.Hits, m.DesignCache.Hits+m.DesignCache.Misses),
		InFlight:    m.InFlight,
		QueueDepth:  m.QueueDepth,
		Synthesized: m.Engine.Synthesized,
	}
}

func rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
