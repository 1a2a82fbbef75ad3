package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
)

// streamBytesCeiling caps the heap bytes of one POST /v1/lint through a
// coordinator over one worker on real listeners, client and worker
// included. route streams the worker's response with io.Copy into the
// coordinator's frame, whose writer must keep the connection's
// io.ReaderFrom: net/http's copy uses a pooled buffer, where io.Copy into
// a writer without one allocates 32 KiB per response. Measured with
// Go 1.24: 45 KiB, and 77 KiB with the ReaderFrom hidden. The ceiling adds
// 25% for differences between Go releases and stays below the latter.
const streamBytesCeiling = 56 << 10

func TestStreamedResponseAllocRatchet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	tc := bootCluster(t, 1, Config{ProbeInterval: time.Hour})
	src, err := bench.Source("gcd")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.LintRequest{Name: "gcd.isps", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		resp, err := http.Post(tc.url()+"/v1/lint", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
	post()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("heap bytes per streamed lint response: %.0f", perOp)
	if perOp > streamBytesCeiling {
		t.Errorf("a lint through the coordinator allocated %.0f bytes, ceiling %d", perOp, streamBytesCeiling)
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool
