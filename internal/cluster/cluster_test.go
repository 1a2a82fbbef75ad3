package cluster

// End-to-end tests of the sharded cluster, httptest-driven: real daad
// workers (internal/serve) behind a real coordinator. The suite pins the
// properties the design leans on — shard affinity observable through
// X-DAAD-Worker, failover with no client-visible error when a worker dies
// mid-run, request-order preservation under scatter-gather, and draining
// workers leaving the ring before their listeners disappear.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
)

// testCluster is a booted coordinator over n in-process workers.
type testCluster struct {
	co      *Coordinator
	front   *httptest.Server
	workers []*httptest.Server // index i is peer "w<i>"
	servers []*serve.Server
}

func (tc *testCluster) url() string { return tc.front.URL }

// bootCluster boots n workers and a coordinator with fast probes.
func bootCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		s := serve.New(serve.Config{ID: id})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		tc.servers = append(tc.servers, s)
		tc.workers = append(tc.workers, ts)
		cfg.Peers = append(cfg.Peers, Peer{ID: id, URL: ts.URL})
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co.Start(context.Background())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		co.Shutdown(ctx)
	})
	tc.co = co
	tc.front = httptest.NewServer(co.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func benchRequest(t *testing.T, name string) serve.SynthesizeRequest {
	t.Helper()
	src, err := bench.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	return serve.SynthesizeRequest{Name: name + ".isps", Source: src}
}

// waitRingSize blocks until the probers converge the ring to want members.
func waitRingSize(t *testing.T, co *Coordinator, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for co.Ring().Len() != want {
		if time.Now().After(deadline) {
			t.Fatalf("ring stuck at %d members, want %d", co.Ring().Len(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAffinityAndShardCacheHeat: repeats of one (source, options) land on
// one worker, the second repeat hits its design cache, and the suite as a
// whole spreads across shards.
func TestAffinityAndShardCacheHeat(t *testing.T) {
	tc := bootCluster(t, 3, Config{})
	workersSeen := map[string]bool{}
	for _, name := range bench.Names() {
		req := benchRequest(t, name)
		key, err := req.ShardKey()
		if err != nil {
			t.Fatal(err)
		}
		wantWorker := tc.co.Ring().Owner(key)

		resp1, body1 := postJSON(t, tc.url()+"/v1/synthesize", req)
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp1.StatusCode, body1)
		}
		w1 := resp1.Header.Get("X-DAAD-Worker")
		if w1 != wantWorker {
			t.Errorf("%s: served by %s, ring owner is %s", name, w1, wantWorker)
		}
		workersSeen[w1] = true

		resp2, body2 := postJSON(t, tc.url()+"/v1/synthesize", req)
		if w2 := resp2.Header.Get("X-DAAD-Worker"); w2 != w1 {
			t.Errorf("%s: repeat served by %s, first by %s — affinity broken", name, w2, w1)
		}
		if got := resp2.Header.Get("X-DAAD-Cache"); got != "hit" {
			t.Errorf("%s: repeat was %q, want hit — shard cache cold", name, got)
		}
		if !bytes.Equal(body1, body2) {
			t.Errorf("%s: cached body differs from the miss", name)
		}
	}
	if len(workersSeen) < 2 {
		t.Errorf("nine benchmarks landed on %d worker(s); expected spread across shards", len(workersSeen))
	}
	// Router-side counters agree: every repeat was a hit on its shard.
	met := tc.co.Metrics()
	var hits, reqs int64
	for _, p := range met.Peers {
		hits += p.CacheHits
		reqs += p.Requests
	}
	if hits < int64(len(bench.Names())) {
		t.Errorf("router observed %d cache hits across %d requests, want >= %d", hits, reqs, len(bench.Names()))
	}
}

// TestExplainRoutesToOwningShard: the provenance key a synthesize
// response returns routes the follow-up explain to the worker that
// journaled the design.
func TestExplainRoutesToOwningShard(t *testing.T) {
	tc := bootCluster(t, 3, Config{})
	req := benchRequest(t, "gcd")
	req.Options.Provenance = true
	resp, body := postJSON(t, tc.url()+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.SynthesizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Provenance == nil {
		t.Fatal("no provenance summary in response")
	}
	synthWorker := resp.Header.Get("X-DAAD-Worker")

	q := url.Values{"key": {out.Provenance.Key}, "sel": {"all"}}
	exResp, err := http.Get(tc.url() + "/v1/explain?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer exResp.Body.Close()
	if exResp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d — not routed to the journaling worker?", exResp.StatusCode)
	}
	if got := exResp.Header.Get("X-DAAD-Worker"); got != synthWorker {
		t.Errorf("explain served by %s, design journaled on %s", got, synthWorker)
	}
}

// TestExploreThroughCoordinator: explore routes by design content hash,
// repeats land on the same worker and hit its explore cache, and the
// response bytes match across runs.
func TestExploreThroughCoordinator(t *testing.T) {
	tc := bootCluster(t, 3, Config{})
	src, err := bench.Source("gcd")
	if err != nil {
		t.Fatal(err)
	}
	req := serve.ExploreRequest{
		Name:   "gcd.isps",
		Source: src,
		Grid: map[string]serve.GridAxis{
			"allocator": {"daa", "leftedge", "naive"},
			"scheduler": {"list", "asap"},
			"cleanup":   {"true", "false"},
		},
	}
	owner := tc.co.Ring().Owner(req.ShardKey())

	resp1, body1 := postJSON(t, tc.url()+"/v1/explore", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-DAAD-Worker"); got != owner {
		t.Errorf("explore served by %s, ring owner of the design is %s", got, owner)
	}
	var er serve.ExploreResponse
	if err := json.Unmarshal(body1, &er); err != nil {
		t.Fatal(err)
	}
	if er.GridPoints != 12 || er.Failed != 0 {
		t.Fatalf("grid=%d failed=%d, want 12/0", er.GridPoints, er.Failed)
	}

	resp2, body2 := postJSON(t, tc.url()+"/v1/explore", req)
	if got := resp2.Header.Get("X-DAAD-Worker"); got != owner {
		t.Errorf("repeat explore served by %s, want %s — affinity broken", got, owner)
	}
	if got := resp2.Header.Get("X-DAAD-Cache"); got != "hit" {
		t.Errorf("repeat explore was %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("explore responses differ across runs through the coordinator")
	}

	// A sweep with different options still routes to the same worker: the
	// explore shard key covers the design content only.
	alt := req
	alt.Options.Allocator = "naive"
	respAlt, _ := postJSON(t, tc.url()+"/v1/explore", alt)
	if got := respAlt.Header.Get("X-DAAD-Worker"); got != owner {
		t.Errorf("option-variant sweep served by %s, want %s", got, owner)
	}

	if got := tc.co.Metrics().Requests.Explore; got != 3 {
		t.Errorf("coordinator explore counter %d, want 3", got)
	}
}

// TestDuplicatesBehindCoordinatorComputeOnce: the coordinator forwards N
// identical synthesize requests, and the worker owning their key computes
// the design once; the others join that computation and answer with its
// body. A cross-checked mcs6502 sweep, posted to the worker directly,
// holds the worker's only token until all N have arrived, so they overlap
// however fast the machine is; canceling it lets the leader compute.
func TestDuplicatesBehindCoordinatorComputeOnce(t *testing.T) {
	worker := serve.New(serve.Config{ID: "w0", Workers: 1})
	ws := httptest.NewServer(worker.Handler())
	t.Cleanup(ws.Close)
	co, err := New(Config{Peers: []Peer{{ID: "w0", URL: ws.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	co.Start(context.Background())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		co.Shutdown(ctx)
	})
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)

	src, err := bench.Source("mcs6502")
	if err != nil {
		t.Fatal(err)
	}
	hold, err := json.Marshal(serve.ExploreRequest{Source: src, NoCache: true,
		Grid: map[string]serve.GridAxis{"crosscheck": {"true"}}})
	if err != nil {
		t.Fatal(err)
	}
	holdCtx, release := context.WithCancel(context.Background())
	defer release()
	held := make(chan struct{})
	go func() {
		defer close(held)
		req, err := http.NewRequestWithContext(holdCtx, http.MethodPost, ws.URL+"/v1/explore", bytes.NewReader(hold))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, "the sweep holds the worker token", func() bool { return worker.Metrics().InFlight == 1 })

	body, err := json.Marshal(benchRequest(t, "gcd"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	codes, caches := make([]int, n), make([]string, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(front.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
			codes[i], caches[i] = resp.StatusCode, resp.Header.Get("X-DAAD-Cache")
		}(i)
	}
	waitUntil(t, "the duplicates join", func() bool { return worker.Metrics().Joined == n-1 })
	release()
	<-held
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK || caches[i] != "miss" {
			t.Fatalf("client %d: HTTP %d, cache %q, want 200 miss: %s", i, codes[i], caches[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d received a different body than client 0", i)
		}
	}
	m := worker.Metrics()
	if m.Engine.Synthesized != 1 || m.Joined != n-1 {
		t.Errorf("worker synthesized %d designs with %d joins for %d identical requests, want 1 and %d",
			m.Engine.Synthesized, m.Joined, n, n-1)
	}
	if got := co.Metrics().Requests.Synthesize; got != n {
		t.Errorf("coordinator counted %d synthesize requests, want %d", got, n)
	}
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFailoverOnKilledWorker: the worker owning a shard dies without
// deregistering; the very next request for that shard fails over to the
// ring successor with no client-visible error, and the failover is
// counted.
func TestFailoverOnKilledWorker(t *testing.T) {
	tc := bootCluster(t, 3, Config{DownAfter: 1000}) // probes must not save us
	req := benchRequest(t, "gcd")
	key, err := req.ShardKey()
	if err != nil {
		t.Fatal(err)
	}
	candidates := tc.co.Ring().Lookup(key)
	owner := candidates[0]
	for i, ts := range tc.workers {
		if fmt.Sprintf("w%d", i) == owner {
			ts.CloseClientConnections()
			ts.Close() // kill mid-flight: no drain, no probe transition yet
		}
	}
	resp, body := postJSON(t, tc.url()+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after worker kill: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-DAAD-Worker"); got != candidates[1] {
		t.Errorf("served by %s, want ring successor %s", got, candidates[1])
	}
	if got := tc.co.Metrics().Failovers; got < 1 {
		t.Errorf("failovers = %d, want >= 1", got)
	}
}

// TestBatchScatterGatherPreservesOrder: a batch spanning every shard plus
// an invalid item comes back in request order, one slot per item.
func TestBatchScatterGatherPreservesOrder(t *testing.T) {
	tc := bootCluster(t, 3, Config{})
	var batch serve.BatchRequest
	names := bench.Names()
	for _, name := range names {
		batch.Requests = append(batch.Requests, benchRequest(t, name))
	}
	batch.Requests = append(batch.Requests, serve.SynthesizeRequest{
		Name: "broken.isps", Source: "this is not ISPS",
	})
	resp, body := postJSON(t, tc.url()+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(names)+1 {
		t.Fatalf("%d results, want %d", len(out.Results), len(names)+1)
	}
	for i, name := range names {
		item := out.Results[i]
		if item.Result == nil {
			t.Fatalf("slot %d (%s): error item: %+v", i, name, item.Error)
		}
		if want := name + ".isps"; item.Result.Name != want {
			t.Errorf("slot %d carries %q, want %q — order not preserved", i, item.Result.Name, want)
		}
	}
	if last := out.Results[len(names)]; last.Error == nil {
		t.Error("invalid source produced no item error")
	}
}

// TestDrainingWorkerLeavesRing: SetReady(false) flips the readiness probe
// and the prober takes the worker out of the ring; traffic keeps flowing
// to the survivors with zero errors.
func TestDrainingWorkerLeavesRing(t *testing.T) {
	tc := bootCluster(t, 3, Config{DownAfter: 2})
	waitRingSize(t, tc.co, 3)
	tc.servers[1].SetReady(false)
	waitRingSize(t, tc.co, 2)
	for _, m := range tc.co.Ring().Members() {
		if m == "w1" {
			t.Fatal("unready worker still in the ring")
		}
	}
	for _, name := range bench.Names()[:3] {
		resp, body := postJSON(t, tc.url()+"/v1/synthesize", benchRequest(t, name))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during drain: status %d: %s", name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-DAAD-Worker"); got == "w1" {
			t.Errorf("%s routed to the drained worker", name)
		}
	}
	// Recovery: ready again, the worker rejoins.
	tc.servers[1].SetReady(true)
	waitRingSize(t, tc.co, 3)
}

// TestCoordinatorForwards429RetryAfter: worker shedding passes through
// the router with its Retry-After intact.
func TestCoordinatorForwards429RetryAfter(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "7")
		w.Header().Set("X-DAAD-Worker", "stub")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"admission queue full, retry later","kind":"overload"}`)
	}))
	defer stub.Close()
	co, err := New(Config{Peers: []Peer{{ID: "stub", URL: stub.URL}}, ProbeInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	co.Start(context.Background())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		co.Shutdown(ctx)
	}()
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	resp, body := postJSON(t, front.URL+"/v1/synthesize", benchRequest(t, "gcd"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 forwarded: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After %q, want 7 — shed signal swallowed", got)
	}
	if got := resp.Header.Get("X-DAAD-Worker"); got != "stub" {
		t.Errorf("X-DAAD-Worker %q not forwarded", got)
	}
}

// TestNoReadyWorkers: an empty ring answers 503 unavailable, and the
// coordinator readiness probe fails, so a front tier above coordinators
// can shed too.
func TestNoReadyWorkers(t *testing.T) {
	co, err := New(Config{
		Peers:         []Peer{{ID: "ghost", URL: "http://127.0.0.1:1"}},
		ProbeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	co.Start(context.Background())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		co.Shutdown(ctx)
	}()
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	resp, body := postJSON(t, front.URL+"/v1/synthesize", serve.SynthesizeRequest{Source: "x"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != serve.KindUnavailable {
		t.Errorf("kind %q (err %v), want unavailable", er.Kind, err)
	}
	hz, err := http.Get(front.URL + "/v1/healthz?ready=1")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("coordinator readiness %d with empty ring, want 503", hz.StatusCode)
	}
}

// TestRoutedEndpointRefusals pins the error surface the routed POST
// endpoints share: 413 past the body limit, 400 for a body that yields no
// shard key, and 503 while draining, each counted against its endpoint.
// The ring is empty, so a request that got as far as routing would answer
// 503 unavailable instead.
func TestRoutedEndpointRefusals(t *testing.T) {
	co, err := New(Config{
		Peers:        []Peer{{ID: "ghost", URL: "http://127.0.0.1:1"}},
		MaxBodyBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	post := func(path, body string) (int, serve.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er serve.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: undecodable error body: %v", path, err)
		}
		return resp.StatusCode, er
	}
	paths := []string{"/v1/synthesize", "/v1/explore", "/v1/lint"}
	big := `{"source": "` + strings.Repeat("x", 300) + `"}`
	for _, path := range paths {
		if code, er := post(path, big); code != http.StatusRequestEntityTooLarge || er.Kind != serve.KindRequest ||
			er.Error != "request body exceeds 256 bytes" {
			t.Errorf("%s oversized: %d %+v, want 413", path, code, er)
		}
		if code, er := post(path, "{"); code != http.StatusBadRequest || er.Kind != serve.KindRequest ||
			!strings.HasPrefix(er.Error, "malformed request: ") {
			t.Errorf("%s malformed: %d %+v, want 400", path, code, er)
		}
		// A worker behind the coordinator refuses trailing data the same way.
		if code, er := post(path, `{"source": "x"} trailing`); code != http.StatusBadRequest || er.Kind != serve.KindRequest ||
			er.Error != "malformed request: invalid character 't' after top-level value" {
			t.Errorf("%s trailing data: %d %+v, want 400", path, code, er)
		}
	}
	// Synthesize keys on canonical options, so invalid ones are a 400 too.
	if code, er := post("/v1/synthesize", `{"source": "x", "options": {"allocator": "quantum"}}`); code != http.StatusBadRequest ||
		!strings.HasPrefix(er.Error, "unknown allocator") {
		t.Errorf("invalid options: %d %+v, want 400", code, er)
	}
	if code, er := post("/v1/synthesize", `{"source": "x", "options": {"allocator": "naive", "provenance": true}}`); code != http.StatusBadRequest ||
		!strings.HasPrefix(er.Error, "provenance needs allocator daa") {
		t.Errorf("provenance with a baseline: %d %+v, want 400", code, er)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	co.Shutdown(ctx)
	for _, path := range paths {
		if code, er := post(path, `{"source": "x"}`); code != http.StatusServiceUnavailable || er.Kind != serve.KindShutdown {
			t.Errorf("%s while draining: %d %+v, want 503 shutdown", path, code, er)
		}
	}
	want := RequestCounts{Synthesize: 6, Explore: 4, Lint: 4}
	if got := co.Metrics().Requests; got != want {
		t.Errorf("request counts %+v, want %+v", got, want)
	}
	if got := co.Metrics().Unrouted; got != 0 {
		t.Errorf("%d requests reached routing, want 0", got)
	}
}

// TestClusterStatusScrapesWorkers: /v1/cluster reports per-shard design
// cache heat scraped from the workers' own metrics.
func TestClusterStatusScrapesWorkers(t *testing.T) {
	tc := bootCluster(t, 2, Config{})
	req := benchRequest(t, "gcd")
	postJSON(t, tc.url()+"/v1/synthesize", req)
	postJSON(t, tc.url()+"/v1/synthesize", req) // hit on the owning shard

	resp, err := http.Get(tc.url() + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Peers) != 2 {
		t.Fatalf("%d peers in status, want 2", len(status.Peers))
	}
	var hits int64
	for _, p := range status.Peers {
		if !p.Up {
			t.Errorf("peer %s down in status", p.ID)
		}
		if p.Worker == nil {
			t.Fatalf("peer %s carries no scraped worker metrics", p.ID)
		}
		hits += p.Worker.DesignCache.Hits
	}
	if hits < 1 {
		t.Errorf("scraped %d design-cache hits, want >= 1", hits)
	}
}

// TestStalledHeadersClosed: connections that send a request line and one
// header and then stall are closed once the header timeout passes, instead
// of each holding a connection and a goroutine open.
func TestStalledHeadersClosed(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	co, err := New(Config{Peers: []Peer{{URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(l)
	defer co.Shutdown(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	var conns []net.Conn
	for range 10 {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := io.WriteString(c, "POST /v1/synthesize HTTP/1.1\r\nHost: daad\r\n"); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(deadline)
		conns = append(conns, c)
	}
	for i, c := range conns {
		if _, err := io.ReadAll(c); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("stalled connection %d still open after 5s", i)
		}
	}
}

// TestStalledBodyClosed: a connection that sends its headers and part of
// the body they announce, then stalls, gets its 400 and is closed once the
// read timeout passes, instead of holding a connection and a goroutine.
func TestStalledBodyClosed(t *testing.T) {
	defer func(d time.Duration) { readTimeout = d }(readTimeout)
	readTimeout = 100 * time.Millisecond
	co, err := New(Config{Peers: []Peer{{URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(l)
	defer co.Shutdown(context.Background())
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	head := "POST /v1/synthesize HTTP/1.1\r\nHost: daad\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n"
	if _, err := io.WriteString(c, head+`{"source":`); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(c)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("stalled connection still open after 5s")
	}
	if !strings.HasPrefix(string(got), "HTTP/1.1 400 ") {
		t.Errorf("stalled client got %q, want a 400", got)
	}
}
