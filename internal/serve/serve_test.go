package serve

// End-to-end tests of the synthesis daemon, httptest-driven: happy paths
// (byte-deterministic responses, identical to local daa output),
// diagnostic rendering, deadline and client-cancel interruption observed
// on the engine-cycle counters, queue-full load shedding, and graceful
// drain. Tests live inside the package so they can substitute the
// synthesize hook for slow/stuck-workload simulation.

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
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/prod"
)

// newTestServer builds a Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and returns the response with its body read.
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

// benchRequest builds a synthesize request for an embedded benchmark.
func benchRequest(t *testing.T, name string) SynthesizeRequest {
	t.Helper()
	src, err := bench.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	return SynthesizeRequest{Name: name + ".isps", Source: src}
}

// localReport compiles a benchmark in-process and renders the same
// deterministic report block the daemon embeds.
func localReport(t *testing.T, name string) string {
	t.Helper()
	in, err := bench.Input(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Compile(context.Background(), in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return RenderReport(res)
}

func decodeSynth(t *testing.T, body []byte) SynthesizeResponse {
	t.Helper()
	var out SynthesizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal response: %v\n%s", err, body)
	}
	return out
}

func decodeError(t *testing.T, body []byte) ErrorResponse {
	t.Helper()
	var out ErrorResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal error response: %v\n%s", err, body)
	}
	return out
}

func TestSynthesizeHappyPathDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := benchRequest(t, "gcd")

	resp1, body1 := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-DAAD-Cache"); got != "miss" {
		t.Errorf("first request cache header %q, want miss", got)
	}
	if resp1.Header.Get("X-DAAD-Request") == "" {
		t.Error("response carries no request ID header")
	}

	// A repeat submission is a cache hit, byte-identical to the miss.
	resp2, body2 := postJSON(t, ts.URL+"/v1/synthesize", req)
	if got := resp2.Header.Get("X-DAAD-Cache"); got != "hit" {
		t.Errorf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit body differs from the miss that populated it")
	}

	// Two independent (cache-bypassing) syntheses are byte-deterministic.
	reqNC := req
	reqNC.NoCache = true
	_, body3 := postJSON(t, ts.URL+"/v1/synthesize", reqNC)
	_, body4 := postJSON(t, ts.URL+"/v1/synthesize", reqNC)
	if !bytes.Equal(body3, body4) {
		t.Error("independent syntheses of the same source differ byte-wise")
	}
	if !bytes.Equal(body1, body3) {
		t.Error("cached and uncached responses differ byte-wise")
	}

	out := decodeSynth(t, body1)
	if out.Report != localReport(t, "gcd") {
		t.Errorf("daemon report differs from local daa output:\n--- remote\n%s\n--- local\n%s",
			out.Report, localReport(t, "gcd"))
	}
	if out.Allocator != flow.AllocDAA || out.Counts.Units == 0 || out.Cost.Datapath <= 0 {
		t.Errorf("incomplete response: %+v", out)
	}
	if out.Stats != nil || out.Stages != nil {
		t.Error("timings present without being requested (breaks byte-determinism)")
	}
}

func TestSynthesizeArtifactsAndTimings(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := benchRequest(t, "counter")
	req.Artifacts = ArtifactRequest{Verilog: true, ControlTable: true, Dot: true}
	req.Timings = true
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	out := decodeSynth(t, body)
	if out.Artifacts == nil {
		t.Fatal("no artifacts")
	}
	if !strings.Contains(out.Artifacts.Verilog, "module") {
		t.Errorf("verilog artifact: %q...", head(out.Artifacts.Verilog, 60))
	}
	if out.Artifacts.ControlTable == "" || !strings.Contains(out.Artifacts.Dot, "digraph") {
		t.Error("control table or dot artifact missing")
	}
	if out.Stats == nil || len(out.Stats.Phases) == 0 {
		t.Error("timed response carries no synthesis stats")
	}
	if len(out.Stages) == 0 {
		t.Error("timed response carries no stage timings")
	}
}

func head(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// TestConcurrentSuiteMatchesLocal fans 32 concurrent clients over the
// full embedded benchmark suite and checks every response byte-for-byte
// against an expectation derived from local compilation — the acceptance
// bar for the serving path.
func TestConcurrentSuiteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite concurrency in -short mode")
	}
	_, ts := newTestServer(t, Config{QueueDepth: 128})
	names := bench.Names()
	want := map[string]string{}
	for _, n := range names {
		want[n] = localReport(t, n)
	}

	const clients = 32
	const perClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				name := names[(c+k)%len(names)]
				req := benchRequest(t, name)
				req.NoCache = (c+k)%2 == 0 // exercise both cache paths
				body, err := json.Marshal(req)
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, buf.String())
					return
				}
				var out SynthesizeResponse
				if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
					errs <- fmt.Errorf("%s: %v", name, err)
					return
				}
				if out.Report != want[name] {
					errs <- fmt.Errorf("%s: remote report differs from local daa output", name)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBadInputDiagnostics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SynthesizeRequest{
		Name:   "bad.isps",
		Source: "processor P {\n    reg A<7:0\n}\n",
	}
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	er := decodeError(t, body)
	if er.Kind != KindInput || len(er.Diagnostics) == 0 {
		t.Fatalf("error %+v, want input kind with diagnostics", er)
	}
	d := er.Diagnostics[0]
	if d.File != "bad.isps" || d.Line == 0 || d.Col == 0 || d.Stage != flow.StageParse {
		t.Errorf("diagnostic %+v, want a positioned parse diagnostic", d)
	}
	if d.SrcLine == "" {
		t.Error("diagnostic lost its source line (remote caret rendering needs it)")
	}
	// The wire diagnostic renders exactly like a local one.
	var sb strings.Builder
	fd := d.FlowDiagnostic()
	fd.WriteSource(&sb)
	if !strings.Contains(sb.String(), "^") {
		t.Errorf("no caret from wire diagnostic:\n%s", sb.String())
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	// Empty source.
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{})
	if resp.StatusCode != http.StatusBadRequest || decodeError(t, body).Kind != KindRequest {
		t.Errorf("empty source: status %d body %s", resp.StatusCode, body)
	}
	// Unknown allocator.
	req := SynthesizeRequest{Source: "x", Options: RequestOptions{Allocator: "bogus"}}
	resp, body = postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus allocator: status %d body %s", resp.StatusCode, body)
	}
	// Oversized body.
	big := SynthesizeRequest{Source: strings.Repeat("x", 4096)}
	resp, body = postJSON(t, ts.URL+"/v1/synthesize", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d body %s", resp.StatusCode, body)
	}
	// Malformed JSON.
	r, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", r.StatusCode)
	}
	// Trailing data after the JSON value is malformed too, as it is at a
	// cluster coordinator: the body must be exactly one request.
	trailing := `{"source": "processor X { reg A<7:0> main m { A := A + 1 } }"} trailing`
	r, err = http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(trailing))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	if er := decodeError(t, buf.Bytes()); r.StatusCode != http.StatusBadRequest || er.Kind != KindRequest ||
		er.Error != "malformed request: invalid character 't' after top-level value" {
		t.Errorf("trailing data: status %d body %s", r.StatusCode, buf.Bytes())
	}
}

// slowCompiles substitutes s's compilation with one that, once the
// returned switch is on, runs the engine under CrossCheck: the exhaustive
// oracle then re-matches every rule on every cycle, which makes each cycle
// expensive enough that a short deadline or an early disconnect lands
// mid-synthesis. The firing sequence, and so the cycle count, is the same
// either way.
func slowCompiles(s *Server) *atomic.Bool {
	var on atomic.Bool
	real := s.synthesize
	s.synthesize = func(ctx context.Context, in flow.Input, opt flow.Options) (*flow.Result, error) {
		if on.Load() {
			opt.Core.CrossCheckMatch = true
		}
		return real(ctx, in, opt)
	}
	return &on
}

// TestDeadlineExceededInterruptsEngine synthesizes the MCS6502 under
// CrossCheck with a deadline far shorter than the run, and observes on the
// process-wide engine-cycle counter that the recognize-act loop stopped
// early instead of running to completion.
func TestDeadlineExceededInterruptsEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("mcs6502 synthesis in -short mode")
	}
	s, ts := newTestServer(t, Config{})
	slow := slowCompiles(s)

	// Reference: a complete run's cycle count.
	req := benchRequest(t, "mcs6502")
	req.NoCache = true
	c0 := prod.TotalEngineCycles()
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: status %d: %s", resp.StatusCode, body)
	}
	fullCycles := prod.TotalEngineCycles() - c0
	if fullCycles == 0 {
		t.Fatal("reference run advanced no engine cycles")
	}

	// Deadlined run: a 25ms deadline lands mid-synthesis (a full
	// cross-checked run takes hundreds of ms).
	slow.Store(true)
	req.DeadlineMS = 25
	c1 := prod.TotalEngineCycles()
	resp, body = postJSON(t, ts.URL+"/v1/synthesize", req)
	interrupted := prod.TotalEngineCycles() - c1
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if er := decodeError(t, body); er.Kind != KindDeadline {
		t.Errorf("kind %q, want deadline", er.Kind)
	}
	if interrupted >= fullCycles {
		t.Errorf("deadlined run executed %d cycles, not fewer than a full run's %d — engine was not interrupted",
			interrupted, fullCycles)
	}
	if got := s.Metrics().Admission.DeadlineExceeded; got < 1 {
		t.Errorf("deadlineExceeded counter %d, want >= 1", got)
	}
}

// TestClientCancelInterruptsEngine drops the client mid-synthesis and
// checks the engine stopped early and the cancellation was counted.
func TestClientCancelInterruptsEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("mcs6502 synthesis in -short mode")
	}
	s, ts := newTestServer(t, Config{})
	slow := slowCompiles(s)

	req := benchRequest(t, "mcs6502")
	req.NoCache = true
	c0 := prod.TotalEngineCycles()
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: status %d: %s", resp.StatusCode, body)
	}
	fullCycles := prod.TotalEngineCycles() - c0

	slow.Store(true)
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/synthesize", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	c1 := prod.TotalEngineCycles()
	if _, err := http.DefaultClient.Do(hr); err == nil {
		t.Fatal("expected the canceled request to fail client-side")
	}
	// The handler notices the disconnect at the next engine cycle; wait
	// for the cancellation to be counted.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Admission.Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled counter never advanced")
		}
		time.Sleep(10 * time.Millisecond)
	}
	interrupted := prod.TotalEngineCycles() - c1
	if interrupted >= fullCycles {
		t.Errorf("canceled run executed %d cycles, not fewer than a full run's %d — engine ran to completion",
			interrupted, fullCycles)
	}
}

// TestQueueFull429 fills the one worker and the one queue slot with stuck
// syntheses and checks the third request is shed with 429, then drains.
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	real := s.synthesize
	s.synthesize = func(ctx context.Context, in flow.Input, opt flow.Options) (*flow.Result, error) {
		select {
		case <-release:
			return real(context.Background(), in, opt)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	req := benchRequest(t, "counter")
	req.NoCache = true
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
			results <- result{resp.StatusCode, body}
		}()
	}
	// Wait until one request holds the worker and one sits in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: waiting=%d", s.waiting.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("429 carries no Retry-After header")
	}
	if er := decodeError(t, body); er.Kind != KindOverload {
		t.Errorf("kind %q, want overload", er.Kind)
	}
	if got := s.Metrics().Admission.Shed; got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("blocked request finished %d: %s", r.status, r.body)
		}
	}
}

// TestShardKeyMatchesProvenanceKey pins the routing identity contract
// internal/cluster relies on: the shard key a coordinator hashes for a
// synthesize request equals the provenance key the worker's response
// returns, so a later /v1/explain routed by that raw key lands on the
// worker that journaled the design.
func TestShardKeyMatchesProvenanceKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := benchRequest(t, "gcd")
	req.Options.Provenance = true
	key, err := req.ShardKey()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	out := decodeSynth(t, body)
	if out.Provenance == nil {
		t.Fatal("response carries no provenance summary")
	}
	if out.Provenance.Key != key {
		t.Errorf("ShardKey %q != provenance key %q", key, out.Provenance.Key)
	}
	// Bad options are a routing-time error, not a worker round trip.
	req.Options.Allocator = "bogus"
	if _, err := req.ShardKey(); err == nil {
		t.Error("ShardKey accepted an unknown allocator")
	}
}

// TestDrainRefusesNewWork pins the drain semantics at the handler level:
// once draining, synthesize and batch return 503 shutdown and healthz
// reports draining.
func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.draining.Store(true)
	req := benchRequest(t, "counter")
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("during drain: status %d, want 503: %s", resp.StatusCode, body)
	}
	if er := decodeError(t, body); er.Kind != KindShutdown {
		t.Errorf("during drain: kind %q, want shutdown", er.Kind)
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []SynthesizeRequest{req}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch during drain: status %d: %s", resp.StatusCode, body)
	}
	// Liveness stays 200 during drain (the process is alive, finishing
	// in-flight work); readiness is what fails, taking the worker out of
	// cluster rings before its listener disappears.
	hz, hzBody := postGet(t, ts.URL+"/v1/healthz")
	if hz != http.StatusOK || !strings.Contains(string(hzBody), "draining") {
		t.Errorf("liveness during drain: %d %s, want 200 draining", hz, hzBody)
	}
	hz, hzBody = postGet(t, ts.URL+"/v1/healthz?ready=1")
	if hz != http.StatusServiceUnavailable || !strings.Contains(string(hzBody), "draining") {
		t.Errorf("readiness during drain: %d %s, want 503 draining", hz, hzBody)
	}
}

// TestReadinessGate pins the warmup half of the liveness/readiness split:
// SetReady(false) fails only the ?ready=1 probe, and requests still serve.
func TestReadinessGate(t *testing.T) {
	s, ts := newTestServer(t, Config{ID: "w7"})
	s.SetReady(false)
	code, body := postGet(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "warming") {
		t.Errorf("liveness while warming: %d %s, want 200 warming", code, body)
	}
	code, _ = postGet(t, ts.URL+"/v1/healthz?ready=1")
	if code != http.StatusServiceUnavailable {
		t.Errorf("readiness while warming: %d, want 503", code)
	}
	resp, rbody := postJSON(t, ts.URL+"/v1/synthesize", benchRequest(t, "gcd"))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unready worker refused a request: %d %s", resp.StatusCode, rbody)
	}
	if got := resp.Header.Get("X-DAAD-Worker"); got != "w7" {
		t.Errorf("X-DAAD-Worker = %q, want w7", got)
	}
	s.SetReady(true)
	code, _ = postGet(t, ts.URL+"/v1/healthz?ready=1")
	if code != http.StatusOK {
		t.Errorf("readiness after SetReady(true): %d, want 200", code)
	}
}

// TestGracefulDrainCompletesInFlight runs the real Serve/Shutdown path on
// a listener: Shutdown must block until the in-flight synthesis finishes,
// and that request must complete with 200.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	s := New(Config{Workers: 2})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	real := s.synthesize
	s.synthesize = func(ctx context.Context, in flow.Input, opt flow.Options) (*flow.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return real(context.Background(), in, opt)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	req := benchRequest(t, "counter")
	req.NoCache = true
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, base+"/v1/synthesize", req)
		done <- result{resp.StatusCode, body}
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must not return while the synthesis is still in flight.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	case <-time.After(200 * time.Millisecond):
	}
	if !s.draining.Load() {
		t.Error("draining flag not set during Shutdown")
	}

	close(release)
	r := <-done
	if r.status != http.StatusOK {
		t.Errorf("in-flight request finished %d during drain: %s", r.status, r.body)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after in-flight work completed")
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

func postGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func TestBatchOrderAndItemErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqs := []SynthesizeRequest{
		benchRequest(t, "gcd"),
		{Name: "bad.isps", Source: "processor P {\n    reg A<7:0\n}\n"},
		benchRequest(t, "counter"),
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	if out.Results[0].Result == nil || out.Results[0].Result.Name != "gcd.isps" {
		t.Errorf("results[0] = %+v, want gcd result", out.Results[0])
	}
	if out.Results[0].Result != nil && out.Results[0].Result.Report != localReport(t, "gcd") {
		t.Error("batch gcd report differs from local output")
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Kind != KindInput {
		t.Errorf("results[1] = %+v, want input error", out.Results[1])
	}
	if out.Results[2].Result == nil || out.Results[2].Result.Name != "counter.isps" {
		t.Errorf("results[2] = %+v, want counter result", out.Results[2])
	}

	// Batch responses are byte-deterministic too.
	_, body2 := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: reqs})
	if !bytes.Equal(body, body2) {
		t.Error("repeat batch response differs byte-wise")
	}
}

func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d: %s", resp.StatusCode, body)
	}
	var over BatchRequest
	for range MaxBatch + 1 {
		over.Requests = append(over.Requests, benchRequest(t, "gcd"))
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", over)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "batch of 257 exceeds the 256-source limit") {
		t.Errorf("oversized batch: status %d: %s", resp.StatusCode, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, body := postGet(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz: %d %s", code, body)
	}

	req := benchRequest(t, "gcd")
	postJSON(t, ts.URL+"/v1/synthesize", req)
	postJSON(t, ts.URL+"/v1/synthesize", req) // cache hit

	code, body = postGet(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var m MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics unmarshal: %v\n%s", err, body)
	}
	if m.Requests.Synthesize < 2 || m.Requests.Healthz < 1 {
		t.Errorf("request counts %+v", m.Requests)
	}
	if m.DesignCache.Hits < 1 || m.DesignCache.Misses < 1 {
		t.Errorf("design cache stats %+v, want >=1 hit and miss", m.DesignCache)
	}
	if m.Engine.CyclesTotal == 0 || m.Engine.Firings == 0 || m.Engine.Synthesized == 0 {
		t.Errorf("engine rollup %+v, want nonzero activity", m.Engine)
	}
	if m.Engine.AlphaEvals == 0 || m.Engine.JoinTests == 0 || m.Engine.TokenAsserts == 0 || m.Engine.TokenRetracts == 0 {
		t.Errorf("engine rollup %+v, want nonzero Rete network counters", m.Engine)
	}
	if m.StagesMS[flow.StageAllocate] <= 0 {
		t.Errorf("stage wall-time map %+v, want allocate > 0", m.StagesMS)
	}
	if m.Workers <= 0 || m.QueueCap <= 0 {
		t.Errorf("pool config missing from metrics: %+v", m)
	}
	if s.Metrics().Responses.OK2xx == 0 {
		t.Error("no 2xx counted")
	}
}

func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.synthesize = func(ctx context.Context, in flow.Input, opt flow.Options) (*flow.Result, error) {
		panic("boom")
	}
	req := benchRequest(t, "counter")
	req.NoCache = true
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if er := decodeError(t, body); er.Kind != KindInternal {
		t.Errorf("kind %q, want internal", er.Kind)
	}
	if got := s.Metrics().Admission.Panics; got != 1 {
		t.Errorf("panics counter %d, want 1", got)
	}
	// The server survives and serves the next request.
	s.synthesize = flow.Compile
	resp, body = postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-panic request: status %d: %s", resp.StatusCode, body)
	}
}

// getMetrics fetches and decodes GET /v1/metrics.
func getMetrics(t *testing.T, base string) MetricsResponse {
	t.Helper()
	code, body := postGet(t, base+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var m MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics unmarshal: %v\n%s", err, body)
	}
	return m
}

// TestDesignCacheEviction pins the CacheEntries bound on the design cache
// as /v1/metrics reports it: three distinct designs through a two-entry
// cache leave two entries and one eviction, and the evicted design misses.
// TestSynthesizeDeclaresContentLength checks that a synthesize body larger
// than net/http's 2 KiB write buffer goes out with its length declared,
// on the miss and on the hit, so a coordinator reads it into one buffer.
func TestSynthesizeDeclaresContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := benchRequest(t, "mcs6502")
	for _, want := range []string{"miss", "hit"} {
		resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DAAD-Cache") != want {
			t.Fatalf("HTTP %d, cache %q, want 200 %s", resp.StatusCode, resp.Header.Get("X-DAAD-Cache"), want)
		}
		if len(body) <= 2048 {
			t.Fatalf("%d-byte body fits net/http's write buffer; the test needs a larger one", len(body))
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d, body %d bytes", want, resp.ContentLength, len(body))
		}
	}
}

func TestDesignCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 2})
	for _, n := range []string{"gcd", "counter", "traffic"} {
		if resp, body := postJSON(t, ts.URL+"/v1/synthesize", benchRequest(t, n)); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", n, resp.StatusCode, body)
		}
	}
	if st := getMetrics(t, ts.URL).DesignCache; st.Entries != 2 || st.Cap != 2 || st.Evictions != 1 || st.Misses != 3 {
		t.Errorf("designCache %+v, want 2 entries of cap 2, 1 eviction, 3 misses", st)
	}
	// gcd was least recently used and evicted: resubmission misses.
	resp, _ := postJSON(t, ts.URL+"/v1/synthesize", benchRequest(t, "gcd"))
	if got := resp.Header.Get("X-DAAD-Cache"); got != "miss" {
		t.Errorf("evicted entry served as %q, want miss", got)
	}
}

// TestDesignCacheEntriesRule pins how Config.CacheEntries sizes the cache:
// 0 selects DefaultDesignCacheEntries, and a negative value disables it,
// so repeats are synthesized afresh and the cache is never consulted.
func TestDesignCacheEntriesRule(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if got := getMetrics(t, ts.URL).DesignCache.Cap; got != DefaultDesignCacheEntries {
		t.Errorf("default cap %d, want %d", got, DefaultDesignCacheEntries)
	}
	_, ts = newTestServer(t, Config{CacheEntries: -1})
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/synthesize", benchRequest(t, "gcd"))
		if got := resp.Header.Get("X-DAAD-Cache"); got != "miss" {
			t.Errorf("request %d with the cache disabled served as %q, want miss", i, got)
		}
	}
	if st := getMetrics(t, ts.URL).DesignCache; st != (flow.CacheStats{}) {
		t.Errorf("disabled designCache %+v, want all zero", st)
	}
}

// TestStalledHeadersClosed: connections that send a request line and one
// header and then stall are closed once the header timeout passes, instead
// of each holding a connection and a goroutine open.
func TestStalledHeadersClosed(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Shutdown(context.Background())
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
	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Shutdown(context.Background())
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
