package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

func urlQuery(s string) string { return url.QueryEscape(s) }

func decodeInto(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
}

// End-to-end tests of the provenance surface: synthesize with provenance
// on, query GET /v1/explain through the returned key, 404 on uncached
// designs, and the journal rollup in /v1/metrics.

func TestExplainEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := benchRequest(t, "gcd")
	req.Options.Provenance = true
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d\n%s", resp.StatusCode, body)
	}
	out := decodeSynth(t, body)
	if out.Provenance == nil {
		t.Fatal("no provenance summary in response")
	}
	if out.Provenance.Key == "" || out.Provenance.Components == 0 || out.Provenance.Firings == 0 {
		t.Fatalf("degenerate provenance summary: %+v", out.Provenance)
	}

	status, ebody := postGet(t, ts.URL+"/v1/explain?key="+urlQuery(out.Provenance.Key)+"&sel=reg+X")
	if status != http.StatusOK {
		t.Fatalf("explain: %d\n%s", status, ebody)
	}
	var ex ExplainResponse
	decodeInto(t, ebody, &ex)
	if ex.Matched == 0 {
		t.Fatal("selector matched no components")
	}
	if !strings.Contains(ex.Text, "allocate-register-for-carrier") {
		t.Fatalf("explain text missing allocating rule:\n%s", ex.Text)
	}

	// Whole-design query.
	status, ebody = postGet(t, ts.URL+"/v1/explain?key="+urlQuery(out.Provenance.Key))
	if status != http.StatusOK {
		t.Fatalf("explain all: %d", status)
	}
	decodeInto(t, ebody, &ex)
	if ex.Matched != out.Provenance.Components {
		t.Fatalf("explain all matched %d, response summary says %d components",
			ex.Matched, out.Provenance.Components)
	}
}

func TestExplainUnknownKey404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postGet(t, ts.URL+"/v1/explain?key=deadbeef")
	if status != http.StatusNotFound {
		t.Fatalf("unknown key: %d\n%s", status, body)
	}
	status, _ = postGet(t, ts.URL+"/v1/explain")
	if status != http.StatusBadRequest {
		t.Fatalf("missing key: %d", status)
	}
}

func TestExplainNotPopulatedWithoutProvenance(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := benchRequest(t, "gcd")
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d", resp.StatusCode)
	}
	out := decodeSynth(t, body)
	if out.Provenance != nil {
		t.Fatal("provenance summary present without the option")
	}
	if st := s.explain.Stats(); st.Entries != 0 {
		t.Fatalf("explain store has %d entries without provenance requests", st.Entries)
	}
}

func TestMetricsJournalRollup(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := benchRequest(t, "gcd")
	req.Options.Provenance = true
	if resp, body := postJSON(t, ts.URL+"/v1/synthesize", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d\n%s", resp.StatusCode, body)
	}
	m := s.Metrics()
	if m.Journal.JournaledRuns != 1 {
		t.Fatalf("journaledRuns = %d, want 1", m.Journal.JournaledRuns)
	}
	if m.Journal.Firings == 0 || m.Journal.Effects < m.Journal.Firings {
		t.Fatalf("degenerate journal rollup: %+v", m.Journal)
	}
	if m.ExplainCache.Entries != 1 {
		t.Fatalf("explain store entries = %d, want 1", m.ExplainCache.Entries)
	}
}

func TestProvenanceRequestsCacheSeparately(t *testing.T) {
	// A provenance run and a plain run of the same source must not share a
	// design-cache entry: the response bodies differ.
	_, ts := newTestServer(t, Config{})
	plain := benchRequest(t, "gcd")
	resp1, _ := postJSON(t, ts.URL+"/v1/synthesize", plain)
	if got := resp1.Header.Get("X-DAAD-Cache"); got != "miss" {
		t.Fatalf("first plain request cache state %q", got)
	}
	prov := benchRequest(t, "gcd")
	prov.Options.Provenance = true
	resp2, body := postJSON(t, ts.URL+"/v1/synthesize", prov)
	if got := resp2.Header.Get("X-DAAD-Cache"); got != "miss" {
		t.Fatalf("provenance request hit the plain entry: cache state %q", got)
	}
	if out := decodeSynth(t, body); out.Provenance == nil {
		t.Fatal("cached-path response lost the provenance summary")
	}
	resp3, body := postJSON(t, ts.URL+"/v1/synthesize", prov)
	if got := resp3.Header.Get("X-DAAD-Cache"); got != "hit" {
		t.Fatalf("repeat provenance request: cache state %q", got)
	}
	if out := decodeSynth(t, body); out.Provenance == nil {
		t.Fatal("cache hit dropped the provenance summary")
	}
}
