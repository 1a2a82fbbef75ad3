package serve

// Identical cached work in flight runs once: the first request for a key
// leads its computation and the requests arriving meanwhile join it. The
// tests hold the leader's compilation at a gate until the followers have
// joined, so the requests overlap however fast the machine is.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/prod"
)

// gatedCompiles substitutes s's compilation with one that counts its calls
// and holds each until open is called or its context ends. The test's
// cleanup opens the gate too, so a failed test does not leave requests
// held.
func gatedCompiles(t *testing.T, s *Server) (calls *atomic.Int64, open func()) {
	calls, gate := new(atomic.Int64), make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	real := s.synthesize
	s.synthesize = func(ctx context.Context, in flow.Input, opt flow.Options) (*flow.Result, error) {
		calls.Add(1)
		select {
		case <-gate:
			return real(ctx, in, opt)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return calls, open
}

// reply is one answered request.
type reply struct {
	status int
	cache  string // X-DAAD-Cache
	body   []byte
}

// postAll posts each of bodies to url concurrently; the returned wait
// blocks until every request has answered and returns the replies in
// order.
func postAll(t *testing.T, url string, bodies ...any) (wait func() []reply) {
	t.Helper()
	replies := make([]reply, len(bodies))
	var wg sync.WaitGroup
	wg.Add(len(bodies))
	for i, v := range bodies {
		payload, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			replies[i] = reply{resp.StatusCode, resp.Header.Get("X-DAAD-Cache"), body}
		}(i)
	}
	return func() []reply {
		wg.Wait()
		return replies
	}
}

// repeat returns n copies of v.
func repeat(v any, n int) []any {
	vs := make([]any, n)
	for i := range vs {
		vs[i] = v
	}
	return vs
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

// checkIdentical fails unless every reply is a 200 design-cache miss with
// the first reply's body.
func checkIdentical(t *testing.T, replies []reply) {
	t.Helper()
	for i, r := range replies {
		if r.status != http.StatusOK || r.cache != "miss" {
			t.Fatalf("request %d: HTTP %d, cache %q, want 200 miss: %s", i, r.status, r.cache, r.body)
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Errorf("request %d answered a different body than request 0", i)
		}
	}
}

// TestIdenticalSynthesizeJoins: requests with one design key compute once,
// even when they differ in deadline or in how they spell their options.
func TestIdenticalSynthesizeJoins(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	calls, open := gatedCompiles(t, s)
	const n = 6
	reqs := repeat(benchRequest(t, "gcd"), n)
	deadlined, spelled := benchRequest(t, "gcd"), benchRequest(t, "gcd")
	deadlined.DeadlineMS = 30000
	spelled.Options.Allocator = flow.AllocDAA
	reqs[1], reqs[2] = deadlined, spelled
	wait := postAll(t, ts.URL+"/v1/synthesize", reqs...)
	waitUntil(t, "the followers join", func() bool { return s.Metrics().Joined == n-1 })
	open()
	checkIdentical(t, wait())
	if got := calls.Load(); got != 1 {
		t.Errorf("%d compilations for %d identical requests, want 1", got, n)
	}
	if got := s.Metrics().DesignCache.Misses; got != n {
		t.Errorf("%d design-cache misses, want %d: every reply says miss", got, n)
	}
	// The leader cached the body: a repeat is a hit.
	if resp, _ := postJSON(t, ts.URL+"/v1/synthesize", benchRequest(t, "gcd")); resp.Header.Get("X-DAAD-Cache") != "hit" {
		t.Errorf("repeat after the joined computation served as %q, want hit", resp.Header.Get("X-DAAD-Cache"))
	}
}

// TestDistinctRequestsDoNotJoin: requests differing in artifacts or in
// options key differently, so each computes on its own.
func TestDistinctRequestsDoNotJoin(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 3})
	calls, open := gatedCompiles(t, s)
	plain := benchRequest(t, "gcd")
	verilog, noCleanup := plain, plain
	verilog.Artifacts.Verilog = true
	noCleanup.Options.NoCleanup = true
	wait := postAll(t, ts.URL+"/v1/synthesize", plain, verilog, noCleanup)
	waitUntil(t, "all three compile", func() bool { return calls.Load() == 3 })
	open()
	for i, r := range wait() {
		if r.status != http.StatusOK || r.cache != "miss" {
			t.Errorf("request %d: HTTP %d, cache %q, want 200 miss: %s", i, r.status, r.cache, r.body)
		}
	}
	if got := s.Metrics().Joined; got != 0 {
		t.Errorf("%d joins among distinct requests, want 0", got)
	}
}

// TestIdenticalExploreJoins: identical sweeps run one flow.Explore. A
// held synthesis occupies the only worker token until every sweep has
// arrived; the engine-cycle delta then equals one reference sweep's.
func TestIdenticalExploreJoins(t *testing.T) {
	if testing.Short() {
		t.Skip("reference sweep in -short mode")
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	req := exploreRequest(t, "gcd")
	ref := req
	ref.NoCache = true
	c0 := prod.TotalEngineCycles()
	if resp, body := postJSON(t, ts.URL+"/v1/explore", ref); resp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep: HTTP %d: %s", resp.StatusCode, body)
	}
	sweepCycles := prod.TotalEngineCycles() - c0

	gatedCompiles(t, s) // the gate stays shut: the held synthesis ends by cancellation
	holdCtx, release := context.WithCancel(context.Background())
	defer release()
	held := make(chan struct{})
	go func() {
		defer close(held)
		hold := benchRequest(t, "counter")
		hold.NoCache = true
		payload, err := json.Marshal(hold)
		if err != nil {
			t.Error(err)
			return
		}
		hr, err := http.NewRequestWithContext(holdCtx, http.MethodPost, ts.URL+"/v1/synthesize", bytes.NewReader(payload))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(hr); err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, "the held synthesis takes the token", func() bool { return s.Metrics().InFlight == 1 })

	const n = 4
	c1 := prod.TotalEngineCycles()
	wait := postAll(t, ts.URL+"/v1/explore", repeat(req, n)...)
	waitUntil(t, "the sweeps join", func() bool { return s.Metrics().Joined == n-1 })
	release()
	<-held
	checkIdentical(t, wait())
	if got := prod.TotalEngineCycles() - c1; got != sweepCycles {
		t.Errorf("%d identical sweeps ran %d engine cycles, one sweep runs %d", n, got, sweepCycles)
	}
}

// TestFollowersSurviveLeaderDisconnect: the leader's client leaves
// mid-compile, so its computation fails; the followers do not take that
// failure but compute again, one leading, and all answer 200.
func TestFollowersSurviveLeaderDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	calls, open := gatedCompiles(t, s)
	req := benchRequest(t, "gcd")
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	leaderCtx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	hr, err := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v1/synthesize", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	leaderDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	waitUntil(t, "the leader compiles", func() bool { return calls.Load() == 1 })

	const followers = 4
	wait := postAll(t, ts.URL+"/v1/synthesize", repeat(req, followers)...)
	waitUntil(t, "the followers join", func() bool { return s.Metrics().Joined == followers })
	disconnect()
	if err := <-leaderDone; err == nil {
		t.Fatal("the disconnected leader's request succeeded")
	}
	waitUntil(t, "the leader's compilation is canceled", func() bool { return s.Metrics().Admission.Canceled == 1 })
	open()
	checkIdentical(t, wait())
	if got := calls.Load(); got != 2 {
		t.Errorf("%d compilations, want 2: the canceled leader's and one follower's", got)
	}
}

// TestNoCacheRequestsNeverJoin: a noCache request has no key, so identical
// noCache requests each compute.
func TestNoCacheRequestsNeverJoin(t *testing.T) {
	const n = 3
	s, ts := newTestServer(t, Config{Workers: n})
	calls, open := gatedCompiles(t, s)
	req := benchRequest(t, "gcd")
	req.NoCache = true
	wait := postAll(t, ts.URL+"/v1/synthesize", repeat(req, n)...)
	waitUntil(t, "every request compiles", func() bool { return calls.Load() == n })
	open()
	for i, r := range wait() {
		if r.status != http.StatusOK {
			t.Errorf("request %d: HTTP %d: %s", i, r.status, r.body)
		}
	}
	if got := s.Metrics().Joined; got != 0 {
		t.Errorf("%d joins among noCache requests, want 0", got)
	}
}
