package serve

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/flow"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// TestBaselineDesignsDeterministic: the baseline allocators build the same
// design on every run, so their Verilog, control table and report are
// byte-identical, as the daemon's cache and `daa -remote` promise.
func TestBaselineDesignsDeterministic(t *testing.T) {
	allocators := []struct {
		name string
		run  func(*vt.Program, alloc.Options) (*rtl.Design, error)
	}{{"leftedge", alloc.LeftEdge}, {"naive", alloc.Naive}}
	for _, name := range bench.Names() {
		for _, a := range allocators {
			t.Run(name+"/"+a.name, func(t *testing.T) {
				var first string
				for run := 0; run < 5; run++ {
					tr, err := bench.Load(name)
					if err != nil {
						t.Fatal(err)
					}
					d, err := a.run(tr, alloc.Options{})
					if err != nil {
						t.Fatal(err)
					}
					var b strings.Builder
					if err := d.WriteVerilog(&b, d.Name); err != nil {
						t.Fatal(err)
					}
					ctl, err := d.Validate()
					if err != nil {
						t.Fatal(err)
					}
					if err := ctl.Write(&b); err != nil {
						t.Fatal(err)
					}
					b.WriteString(RenderReport(&flow.Result{Design: d, Control: ctl, Cost: cost.Default().Design(d)}))
					if run == 0 {
						first = b.String()
					} else if b.String() != first {
						t.Fatalf("run %d differs from run 0", run)
					}
				}
			})
		}
	}
}

// TestBaselineProvenanceRefused: provenance indexes rule firings, which a
// baseline allocator has none of, so asking for it is a request error.
func TestBaselineProvenanceRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, a := range []string{flow.AllocLeftEdge, flow.AllocNaive} {
		req := benchRequest(t, "gcd")
		req.Options = RequestOptions{Allocator: a, Provenance: true}
		resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", a, resp.StatusCode, body)
		}
		want := "provenance needs allocator daa: the " + a + " allocator fires no rules"
		if er := decodeError(t, body); er.Kind != KindRequest || er.Error != want {
			t.Errorf("%s: error %+v, want kind %s, %q", a, er, KindRequest, want)
		}
	}
}

// TestBaselineIgnoresDAAKnobsInCache: the baselines ignore the DAA-only
// options, so a baseline request that sets one is served from the entry
// its plain spelling filled.
func TestBaselineIgnoresDAAKnobsInCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := benchRequest(t, "gcd")
	req.Options = RequestOptions{Allocator: flow.AllocNaive}
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	req.Options.NoCleanup = true
	resp2, body2 := postJSON(t, ts.URL+"/v1/synthesize", req)
	if got := resp2.Header.Get("X-DAAD-Cache"); got != "hit" {
		t.Errorf("naive with noCleanup after naive: cache header %q, want hit", got)
	}
	if string(body2) != string(body) {
		t.Error("cache hit body differs from the miss that filled it")
	}
}
