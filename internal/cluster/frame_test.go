package cluster

// The request frame (serve.Frame) is shared by both tiers of the serving
// stack. This table runs the same checks against a real worker handler
// and a real coordinator handler: each is driven with a request whose
// body panics when read, which both tiers read inside the frame.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// panicBody is a request body whose Read panics with v.
type panicBody struct{ v any }

func (b panicBody) Read([]byte) (int, error) { panic(b.v) }

func TestRequestFrame(t *testing.T) {
	worker := serve.New(serve.Config{})
	co, err := New(Config{Peers: []Peer{{ID: "ghost", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name     string
		handler  http.Handler
		idHeader string
		idPrefix string
		err5xx   func() int64
	}{
		{"worker", worker.Handler(), "X-DAAD-Request", "r-", func() int64 { return worker.Metrics().Responses.Err5xx }},
		{"coordinator", co.Handler(), "X-DAAD-Route", "c-", func() int64 { return co.Metrics().Responses.Err5xx }},
	} {
		t.Run(tier.name, func(t *testing.T) {
			// A panic answers 500 with an internal ErrorResponse that carries
			// the request ID the ID header reports, and counts as a 5xx.
			id := tier.idPrefix + "000001"
			rec := httptest.NewRecorder()
			tier.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lint", panicBody{"boom"}))
			var er serve.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("undecodable panic body %q: %v", rec.Body, err)
			}
			if rec.Code != http.StatusInternalServerError || er.Kind != serve.KindInternal ||
				er.Error != "internal error: boom" || er.RequestID != id {
				t.Errorf("panic answered %d %+v, want 500 internal carrying %s", rec.Code, er, id)
			}
			if got := rec.Header().Get(tier.idHeader); got != id {
				t.Errorf("%s = %q, want %s", tier.idHeader, got, id)
			}
			if got := tier.err5xx(); got != 1 {
				t.Errorf("5xx count %d, want 1", got)
			}

			// http.ErrAbortHandler is re-raised, so net/http aborts the
			// connection instead of answering.
			func() {
				defer func() {
					if p := recover(); p != http.ErrAbortHandler {
						t.Errorf("recovered %v, want http.ErrAbortHandler re-raised", p)
					}
				}()
				req := httptest.NewRequest(http.MethodPost, "/v1/lint", panicBody{http.ErrAbortHandler})
				tier.handler.ServeHTTP(httptest.NewRecorder(), req)
			}()

			// Every response carries the next ID under the tier's header.
			rec = httptest.NewRecorder()
			tier.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
			if got, want := rec.Header().Get(tier.idHeader), tier.idPrefix+"000003"; got != want {
				t.Errorf("%s = %q, want %s", tier.idHeader, got, want)
			}
		})
	}
}
