// Package cluster is the sharded synthesis tier in front of N daad
// workers (internal/serve): a coordinator that routes every request to
// the worker owning its shard, so each worker's LRU design cache and
// explain store stay hot on a stable slice of the keyspace.
//
// Routing is a consistent hash of the request's canonical identity —
// (source content hash, canonical option key), the exact key the worker
// caches and journals under — over a ring of health-checked members.
// Membership is probed through the workers' readiness endpoint
// (/v1/healthz?ready=1) with hysteresis, so draining or warming workers
// leave the ring before their listeners disappear and in-flight requests
// are never dropped by a rebuild (rings swap copy-on-write). Idempotent
// requests — all of them: the API is pure computation plus GETs — fail
// over in ring order onto the next peer when a worker dies between
// probes, and /v1/batch scatter-gathers sub-batches across shards,
// reassembling results in request order. The coordinator exposes the same
// /v1 surface as a single daad, plus /v1/cluster for membership status
// and per-shard cache heat.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Config shapes a Coordinator. Peers is required; everything else
// defaults sanely.
type Config struct {
	// Peers are the workers fronted by this coordinator. IDs must be
	// distinct; empty IDs default to the URL.
	Peers []Peer
	// ProbeInterval spaces readiness probes per peer (default 500ms).
	ProbeInterval time.Duration
	// MaxBodyBytes limits request bodies (default 8 MiB — batches carry
	// many sources).
	MaxBodyBytes int64
	// Logger receives one line per request and membership transition.
	// Nil discards logs (tests).
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c
}

// Coordinator is the router process: health-checked membership, the
// consistent-hash ring, peer forwarding with failover, scatter-gather
// batching, and the rollup endpoints.
type Coordinator struct {
	cfg         Config
	peers       []*peerState // configured order, fixed for the lifetime
	byID        map[string]*peerState
	ring        atomic.Pointer[Ring]
	peerClient  *http.Client // forwards on a transport of its own, so Shutdown can close its idle connections
	probeClient *http.Client
	met         coordMetrics
	start       time.Time
	frame       serve.Frame

	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	http     http.Server
}

// probeTimeout bounds one readiness probe or worker metrics scrape.
const probeTimeout = 2 * time.Second

// readHeaderTimeout bounds how long a connection may take to send its
// request headers: one that stalls mid-header is closed instead of holding
// a connection and a goroutine forever. A variable so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

// readTimeout bounds how long a connection may take to send a whole
// request, body included: one that stalls mid-body is closed. It does not
// cut off a long synthesis, since net/http clears the read deadline once
// the handler has the body. With IdleTimeout unset it also closes idle
// keep-alive connections. A variable so tests can shorten it.
var readTimeout = time.Minute

// New builds a Coordinator over cfg.Peers. Call Start to begin probing,
// Serve to accept traffic, Shutdown to drain.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one peer")
	}
	co := &Coordinator{
		cfg:        cfg,
		byID:       map[string]*peerState{},
		peerClient: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()},
		probeClient: &http.Client{
			Timeout:   probeTimeout,
			Transport: http.DefaultTransport.(*http.Transport).Clone(),
		},
		start: time.Now(),
		frame: serve.Frame{IDPrefix: "c-", IDHeader: "X-DAAD-Route", MaxBodyBytes: cfg.MaxBodyBytes, Logger: cfg.Logger},
		stop:  make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		id := p.ID
		if id == "" {
			id = p.URL
		}
		if _, dup := co.byID[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer ID %q", id)
		}
		ps := &peerState{id: id, base: strings.TrimRight(p.URL, "/")}
		co.peers = append(co.peers, ps)
		co.byID[id] = ps
	}
	co.ring.Store(NewRing(nil))
	co.http.Handler = co.Handler()
	co.http.ReadHeaderTimeout = readHeaderTimeout
	co.http.ReadTimeout = readTimeout
	return co, nil
}

// Start runs one synchronous probe round — so a cluster whose workers are
// already listening routes from the first request — then launches the
// per-peer probe loops, whose first probes come one interval later. ctx is
// the coordinator's lifecycle: probing stops when it ends (Shutdown stops
// it too).
func (co *Coordinator) Start(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range co.peers {
		wg.Add(1)
		go func(p *peerState) {
			defer wg.Done()
			if co.probePeer(ctx, p) {
				p.probeOK.Add(1)
				p.up.Store(true)
			} else {
				p.probeFail.Add(1)
			}
		}(p)
	}
	wg.Wait()
	co.rebuildRing()
	for _, p := range co.peers {
		co.wg.Add(1)
		go co.probeLoop(ctx, p)
	}
}

// Serve accepts connections on l until Shutdown.
func (co *Coordinator) Serve(l net.Listener) error { return co.http.Serve(l) }

// Shutdown drains the coordinator: probing stops, new work is refused
// with 503, and in-flight forwards run to completion (or ctx expiry).
func (co *Coordinator) Shutdown(ctx context.Context) error {
	co.draining.Store(true)
	co.stopOnce.Do(func() { close(co.stop) })
	co.wg.Wait()
	err := co.http.Shutdown(ctx)
	// Release pooled worker connections so workers shutting down after the
	// coordinator drain immediately instead of waiting out parked sockets.
	co.peerClient.CloseIdleConnections()
	co.probeClient.CloseIdleConnections()
	return err
}

// Ring returns the current ring snapshot (tests and status rendering).
func (co *Coordinator) Ring() *Ring { return co.ring.Load() }

// Handler returns the coordinator's full HTTP handler.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range co.routeTable() {
		mux.HandleFunc("POST "+ep.path, co.handleRouted(ep))
	}
	mux.HandleFunc("POST /v1/batch", co.handleBatch)
	mux.HandleFunc("GET /v1/explain", co.handleExplain)
	mux.HandleFunc("GET /v1/healthz", co.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", co.handleMetrics)
	mux.HandleFunc("GET /v1/cluster", co.handleCluster)
	return co.frame.Wrap(mux)
}

// ---------------------------------------------------------------------------
// Routed endpoints.

// endpoint is one row of the coordinator's route table: a POST endpoint
// the coordinator forwards, unchanged, to the worker owning the request's
// shard key.
type endpoint struct {
	path     string                            // worker path, served as "POST " + path
	requests *atomic.Int64                     // the endpoint's request counter
	shardKey func(body []byte) (string, error) // an error is a 400
}

// routeTable lists the routed POST endpoints. Concurrent identical
// requests share one computation on the worker that owns their key, so
// the coordinator forwards each one as it comes. Explore routes by design
// content hash alone (ExploreRequest.ShardKey): every sweep of one design
// lands on the same worker, whose front-end artifact cache absorbs the
// grid's amplification and whose explore cache answers repeat sweeps.
func (co *Coordinator) routeTable() []endpoint {
	return []endpoint{
		{"/v1/synthesize", &co.met.synthesize, decodeKey(serve.SynthesizeRequest.ShardKey)},
		{"/v1/explore", &co.met.explore, decodeKey(infallible(serve.ExploreRequest.ShardKey))},
		{"/v1/lint", &co.met.lint, decodeKey(infallible(serve.LintRequest.ShardKey))},
	}
}

// decodeKey turns a request type's shard-key method into an endpoint's
// body-to-key function.
func decodeKey[R any](key func(R) (string, error)) func([]byte) (string, error) {
	return func(body []byte) (string, error) {
		var req R
		if err := serve.DecodeRequest(body, &req); err != nil {
			return "", err
		}
		return key(req)
	}
}

// infallible adapts a shard-key method that cannot fail.
func infallible[R any](key func(R) string) func(R) (string, error) {
	return func(req R) (string, error) { return key(req), nil }
}

// handleRouted serves one route-table row: refuse while draining, read
// the size-limited body, derive its shard key (an error is a 400), and
// forward it.
func (co *Coordinator) handleRouted(ep endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Add(1)
		body, err := co.acceptBody(w, r)
		key := ""
		if err == nil {
			key, err = ep.shardKey(body)
		}
		if err != nil {
			co.frame.Refuse(w, r, err)
			return
		}
		co.route(w, r, http.MethodPost, ep.path, nil, body, key)
	}
}

// handleExplain routes by the raw provenance key, which equals the shard
// key of the synthesize request that journaled the design — so the lookup
// lands on the worker holding the explain store entry.
func (co *Coordinator) handleExplain(w http.ResponseWriter, r *http.Request) {
	co.met.explain.Add(1)
	key := r.URL.Query().Get("key")
	if key == "" {
		co.frame.Refuse(w, r, serve.ErrMissingExplainKey)
		return
	}
	co.route(w, r, http.MethodGet, "/v1/explain", r.URL.Query(), nil, key)
}

// route forwards one request to the worker owning key, failing over in
// ring order on transport failures and worker-drain 503s. It is the one
// forwarding path of the routed endpoints and GET /v1/explain. The
// response — success or served error — streams back with the
// shard-identity headers (X-DAAD-Worker, X-DAAD-Cache) and Retry-After
// intact, through net/http's pooled copy buffer (serve.Frame's writer
// keeps the connection's io.ReaderFrom).
func (co *Coordinator) route(w http.ResponseWriter, r *http.Request, method, path string, query url.Values, body []byte, key string) {
	resp, peer, err := co.forward(r.Context(), method, path, query, body, key)
	if err != nil {
		co.writeRouteError(w, r, err)
		return
	}
	defer resp.Body.Close()
	co.observeResponse(peer, resp)
	copyHeaders(w, resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// errNoWorkers reports an empty ring.
var errNoWorkers = errors.New("cluster: no ready workers in the ring")

// forward tries each ring candidate for key, in order, until one answers.
// Each candidate gets one request: the ring successor is the retry, so a
// per-peer backoff would only add latency in front of a live one. A
// transport failure or a drain 503 moves to the next candidate and
// counts a failover against the peer that failed; any other response —
// including served errors like 422 diagnostics or 429 shedding — is the
// answer. The ring snapshot is taken once, so a concurrent rebuild cannot
// reorder this request's candidates mid-flight.
func (co *Coordinator) forward(ctx context.Context, method, path string, query url.Values, body []byte, key string) (*http.Response, *peerState, error) {
	candidates := co.ring.Load().Lookup(key)
	if len(candidates) == 0 {
		co.met.unrouted.Add(1)
		return nil, nil, errNoWorkers
	}
	var lastErr error
	for hop, id := range candidates {
		peer := co.byID[id]
		target := peer.base + path
		if len(query) > 0 {
			target += "?" + query.Encode()
		}
		req, err := http.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := co.peerClient.Do(req)
		switch {
		case err == nil && resp.StatusCode == http.StatusServiceUnavailable && hop < len(candidates)-1:
			// The worker is draining (or shedding a dying connection): its
			// successor owns the shard next, so spend a failover on it.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			peer.failovers.Add(1)
			co.met.failovers.Add(1)
			lastErr = fmt.Errorf("peer %s: HTTP 503", id)
			continue
		case err == nil:
			if hop > 0 {
				co.cfg.Logger.Printf("failover: %s served key owned by %s", id, candidates[0])
			}
			return resp, peer, nil
		case TransientConnErr(err):
			peer.failovers.Add(1)
			co.met.failovers.Add(1)
			lastErr = fmt.Errorf("peer %s: %w", id, err)
			continue
		default:
			return nil, nil, err // context cancellation, malformed target…
		}
	}
	co.met.unrouted.Add(1)
	return nil, nil, fmt.Errorf("cluster: all %d candidates failed: %w", len(candidates), lastErr)
}

// observeResponse folds a forwarded response into the peer's counters.
func (co *Coordinator) observeResponse(peer *peerState, resp *http.Response) {
	peer.requests.Add(1)
	switch resp.Header.Get("X-DAAD-Cache") {
	case "hit":
		peer.cacheHits.Add(1)
	case "miss":
		peer.cacheMisses.Add(1)
	}
}

// readResponse reads at most limit bytes of a forwarded response body. A
// declared length sizes the buffer once, as Frame.ReadBody does for
// requests; the limit still applies to what arrives.
func readResponse(resp *http.Response, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(resp.Body, limit))
	return buf.Bytes(), err
}

// copyHeaders propagates the response headers a caller can act on: the
// body type, the shard identity pair (which worker served it, whether it
// was a cache hit), the worker-side request ID, and Retry-After on 429
// shedding — forwarded, not swallowed, so the client backs off instead of
// re-hammering an overloaded shard through the router.
var forwardedHeaders = []string{"Content-Type", "X-DAAD-Cache", "X-DAAD-Worker", "X-DAAD-Request", "Retry-After"}

func copyHeaders(w http.ResponseWriter, from http.Header) {
	for _, h := range forwardedHeaders {
		if v := from.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// ---------------------------------------------------------------------------
// Scatter-gather batch.

func (co *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	co.met.batch.Add(1)
	var req serve.BatchRequest
	body, err := co.acceptBody(w, r)
	if err == nil {
		err = serve.DecodeRequest(body, &req)
	}
	if err == nil {
		err = req.Check()
	}
	if err != nil {
		co.frame.Refuse(w, r, err)
		return
	}
	n := len(req.Requests)
	co.met.batchItems.Add(int64(n))

	// Scatter: group items by shard owner under one ring snapshot. Items
	// whose options cannot be canonicalized still route — by content hash
	// alone — so the owning worker renders the canonical per-item error.
	ring := co.ring.Load()
	if ring.Len() == 0 {
		co.met.unrouted.Add(1)
		co.frame.WriteError(w, r, http.StatusServiceUnavailable, &serve.ErrorResponse{
			Error: errNoWorkers.Error(), Kind: serve.KindUnavailable,
		})
		return
	}
	type group struct {
		key     string // first item's shard key: failover order for the group
		indices []int  // original slots, ascending
	}
	groups := map[string]*group{}
	for i, item := range req.Requests {
		key, err := item.ShardKey()
		if err != nil {
			key = fmt.Sprintf("%x|invalid", item.Name)
		}
		owner := ring.Owner(key)
		g, ok := groups[owner]
		if !ok {
			g = &group{key: key}
			groups[owner] = g
		}
		g.indices = append(g.indices, i)
	}

	// Gather: one sub-batch per owner, concurrently, reassembled into the
	// original slots so the response order matches the request order no
	// matter which shard answered first.
	items := make([]serve.BatchItem, n)
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			sub := serve.BatchRequest{Requests: make([]serve.SynthesizeRequest, len(g.indices))}
			for j, idx := range g.indices {
				sub.Requests[j] = req.Requests[idx]
			}
			subBody, err := json.Marshal(sub)
			if err != nil {
				co.fillGroupError(items, g.indices, err)
				return
			}
			resp, peer, err := co.forward(r.Context(), http.MethodPost, "/v1/batch", nil, subBody, g.key)
			if err != nil {
				co.fillGroupError(items, g.indices, err)
				return
			}
			defer resp.Body.Close()
			co.observeResponse(peer, resp)
			raw, err := readResponse(resp, 256<<20)
			if err != nil {
				co.fillGroupError(items, g.indices, err)
				return
			}
			var out serve.BatchResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &out) != nil || len(out.Results) != len(g.indices) {
				co.fillGroupError(items, g.indices,
					fmt.Errorf("peer %s: unusable sub-batch response (HTTP %d)", peer.id, resp.StatusCode))
				return
			}
			for j, idx := range g.indices {
				items[idx] = out.Results[j]
			}
		}(g)
	}
	wg.Wait()
	co.frame.WriteJSON(w, http.StatusOK, serve.BatchResponse{Results: items})
}

// fillGroupError marks every slot of a failed sub-batch unavailable.
func (co *Coordinator) fillGroupError(items []serve.BatchItem, indices []int, err error) {
	for _, idx := range indices {
		items[idx] = serve.BatchItem{Error: &serve.ErrorResponse{
			Error: err.Error(), Kind: serve.KindUnavailable,
		}}
	}
}

// ---------------------------------------------------------------------------
// Coordinator-local endpoints and plumbing.

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	co.met.healthz.Add(1)
	up := 0
	for _, p := range co.peers {
		if p.up.Load() {
			up++
		}
	}
	status := "ok"
	ready := true
	switch {
	case co.draining.Load():
		status, ready = "draining", false
	case up == 0:
		status, ready = "no-workers", false
	}
	code := http.StatusOK
	if r.URL.Query().Get("ready") != "" && !ready {
		code = http.StatusServiceUnavailable
	}
	co.frame.WriteJSON(w, code, HealthResponse{
		Status: status, Ready: ready, Role: "coordinator",
		PeersUp: up, PeersKnown: len(co.peers),
	})
}

// errDraining refuses new routed work during drain.
var errDraining = &serve.Refusal{Status: http.StatusServiceUnavailable, Kind: serve.KindShutdown, Msg: "coordinator is draining"}

// acceptBody admits new routed work: refused while the coordinator drains,
// otherwise its body as the frame reads it.
func (co *Coordinator) acceptBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if co.draining.Load() {
		return nil, errDraining
	}
	return co.frame.ReadBody(w, r)
}

// writeRouteError maps a forwarding failure onto the wire taxonomy.
func (co *Coordinator) writeRouteError(w http.ResponseWriter, r *http.Request, err error) {
	resp := &serve.ErrorResponse{Error: err.Error(), Kind: serve.KindUnavailable}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		resp = &serve.ErrorResponse{Error: "request canceled", Kind: serve.KindCanceled}
	}
	co.frame.WriteError(w, r, http.StatusServiceUnavailable, resp)
}
