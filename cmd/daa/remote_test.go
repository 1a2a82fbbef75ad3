package main

// Remote-mode tests drive run() against real serving stacks behind
// httptest: the report, explain and explore round trips render identically
// to a local run through a single daemon and through a coordinator over
// two workers, and the client's send policy — one retry of a failed
// connection, one wait on a short Retry-After, no retry of a served
// error — holds.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/serve"
)

// newDaemon starts a daad handler behind httptest.
func newDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// stack is one serving topology a remote test targets.
type stack struct {
	name string
	url  string
}

// newStacks boots the two topologies daa -remote must render identically
// against: a single daemon, and a coordinator over two workers.
func newStacks(t *testing.T) []stack {
	t.Helper()
	var peers []cluster.Peer
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("w%d", i)
		ts := httptest.NewServer(serve.New(serve.Config{ID: id}).Handler())
		t.Cleanup(ts.Close)
		peers = append(peers, cluster.Peer{ID: id, URL: ts.URL})
	}
	co, err := cluster.New(cluster.Config{Peers: peers, ProbeInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	co.Start(context.Background())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := co.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
	})
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	return []stack{
		{"daemon", newDaemon(t).URL},
		{"coordinator", front.URL},
	}
}

func TestRemoteReportMatchesLocal(t *testing.T) {
	cases := []struct{ bench, allocator string }{
		{"gcd", "daa"},
		{"mcs6502", "leftedge"},
		{"mcs6502", "naive"},
	}
	for _, st := range newStacks(t) {
		t.Run(st.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.bench+"/"+c.allocator, func(t *testing.T) {
					var local, remote strings.Builder
					if err := run(&local, options{benchName: c.bench, allocator: c.allocator}); err != nil {
						t.Fatal(err)
					}
					if err := run(&remote, options{benchName: c.bench, allocator: c.allocator, remote: st.url}); err != nil {
						t.Fatal(err)
					}
					// The report block is shared; the local run additionally prints the
					// value-trace header, which remote mode omits.
					if !strings.Contains(local.String(), remote.String()) {
						t.Errorf("remote report is not embedded in local output:\n--- local ---\n%s\n--- remote ---\n%s",
							local.String(), remote.String())
					}
				})
			}
		})
	}
}

// TestRemoteExplainMatchesLocal: the listing renders as it does locally,
// which through a coordinator means GET /v1/explain reached the worker
// that journaled the design — the only one whose explain store holds it.
func TestRemoteExplainMatchesLocal(t *testing.T) {
	for _, st := range newStacks(t) {
		t.Run(st.name, func(t *testing.T) {
			var local, remote strings.Builder
			if err := run(&local, options{benchName: "gcd", allocator: "daa", explain: "all"}); err != nil {
				t.Fatal(err)
			}
			if err := run(&remote, options{benchName: "gcd", allocator: "daa", explain: "all", remote: st.url}); err != nil {
				t.Fatal(err)
			}
			if local.String() != remote.String() {
				t.Errorf("remote explain differs from local:\n--- local ---\n%s\n--- remote ---\n%s",
					local.String(), remote.String())
			}
		})
	}
}

// TestRemoteExploreMatchesLocal: a sweep sent to a daemon or a coordinator
// renders the same table, and with -json the same body, as the sweep run
// in-process.
func TestRemoteExploreMatchesLocal(t *testing.T) {
	for _, st := range newStacks(t) {
		t.Run(st.name, func(t *testing.T) {
			for _, asJSON := range []bool{false, true} {
				o := options{benchName: "gcd", allocator: "daa", exploreSpec: "allocator=daa,leftedge cleanup=true,false", exploreJSON: asJSON}
				var local, remote strings.Builder
				if err := run(&local, o); err != nil {
					t.Fatal(err)
				}
				o.remote = st.url
				if err := run(&remote, o); err != nil {
					t.Fatal(err)
				}
				if local.Len() == 0 || local.String() != remote.String() {
					t.Errorf("-json=%t: remote sweep differs from local:\n--- local ---\n%s\n--- remote ---\n%s",
						asJSON, local.String(), remote.String())
				}
			}
		})
	}
}

func TestRemoteJournalIsUsageError(t *testing.T) {
	err := runQuiet(options{benchName: "gcd", allocator: "daa", remote: "http://localhost:1", journal: "x.jnl"})
	if flow.ExitCode(err) != flow.ExitUsage {
		t.Errorf("-journal with -remote: exit %d (%v), want usage", flow.ExitCode(err), err)
	}
}

// TestRemoteRetriesKilledConnection kills the first TCP connection before
// writing any response; the client's single retry must complete the run.
func TestRemoteRetriesKilledConnection(t *testing.T) {
	oldBackoff := retryBackoff
	retryBackoff = time.Millisecond
	defer func() { retryBackoff = oldBackoff }()

	inner := serve.New(serve.Config{}).Handler()
	var killed atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.CompareAndSwap(false, true) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close() // drop the socket with no response bytes
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var sb strings.Builder
	if err := run(&sb, options{benchName: "gcd", allocator: "daa", remote: ts.URL}); err != nil {
		t.Fatalf("run did not survive one killed connection: %v", err)
	}
	if !killed.Load() {
		t.Fatal("test server never killed a connection")
	}
	if !strings.Contains(sb.String(), "control steps:") {
		t.Errorf("retried run produced no report:\n%s", sb.String())
	}
}

// TestRemoteHonorsRetryAfter: a daemon (or coordinator) shedding load
// with 429 + a short Retry-After is waited out and the run completes.
func TestRemoteHonorsRetryAfter(t *testing.T) {
	inner := serve.New(serve.Config{}).Handler()
	var shed atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if shed.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"queue full","kind":"overload"}`, http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var sb strings.Builder
	if err := run(&sb, options{benchName: "gcd", allocator: "daa", remote: ts.URL}); err != nil {
		t.Fatalf("run did not survive one shed response: %v", err)
	}
	if !shed.Load() {
		t.Fatal("test server never shed a request")
	}
	if !strings.Contains(sb.String(), "control steps:") {
		t.Errorf("retried run produced no report:\n%s", sb.String())
	}
}

// TestRemoteDoesNotRetryHTTPErrors pins the retry scope: a served error
// response is the answer. A 404 for an unknown route and a 429 whose
// Retry-After is longer than the client waits come back after one
// request; a short Retry-After is waited out once, so a second 429 comes
// back after two.
func TestRemoteDoesNotRetryHTTPErrors(t *testing.T) {
	const overload = `{"error":"queue full","kind":"overload"}`
	for _, c := range []struct {
		name             string
		status           int
		retryAfter, body string
		want             string // the error's tail
		requests         int32
	}{
		{"not-found", http.StatusNotFound, "", "", "HTTP 404", 1},
		{"long-retry-after", http.StatusTooManyRequests, "3600", overload, "queue full (overload)", 1},
		{"second-429", http.StatusTooManyRequests, "0", overload, "queue full (overload)", 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var hits atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				if c.retryAfter != "" {
					w.Header().Set("Retry-After", c.retryAfter)
				}
				w.WriteHeader(c.status)
				fmt.Fprint(w, c.body)
			}))
			defer ts.Close()
			err := runQuiet(options{benchName: "gcd", allocator: "daa", remote: ts.URL})
			if err == nil || !strings.HasSuffix(err.Error(), c.want) || flow.ExitCode(err) != flow.ExitInternal {
				t.Fatalf("got %v (exit %d), want an error ending %q (exit %d)", err, flow.ExitCode(err), c.want, flow.ExitInternal)
			}
			if got := hits.Load(); got != c.requests {
				t.Errorf("%d requests, want %d", got, c.requests)
			}
		})
	}
}

// TestRemoteRetriesConnectionFailureOnce: a daemon that refuses every
// connection, or drops each one before answering, fails the run after
// exactly one retry, with the transport error and the internal-failure
// exit code.
func TestRemoteRetriesConnectionFailureOnce(t *testing.T) {
	oldBackoff := retryBackoff
	retryBackoff = 20 * time.Millisecond
	defer func() { retryBackoff = oldBackoff }()

	var dropped atomic.Int32
	dropper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dropped.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	defer dropper.Close()

	for _, c := range []struct{ name, url string }{
		{"refused", "http://127.0.0.1:1"},
		{"dropped", dropper.URL},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			err := runQuiet(options{benchName: "gcd", allocator: "daa", remote: c.url})
			if !cluster.TransientConnErr(err) || flow.ExitCode(err) != flow.ExitInternal {
				t.Fatalf("got %v (exit %d), want the transport error (exit %d)", err, flow.ExitCode(err), flow.ExitInternal)
			}
			if elapsed := time.Since(start); elapsed < retryBackoff {
				t.Errorf("failed after %v, before the %v retry pause", elapsed, retryBackoff)
			}
		})
	}
	if got := dropped.Load(); got != 2 {
		t.Errorf("the dropping daemon saw %d requests, want 2", got)
	}
}
