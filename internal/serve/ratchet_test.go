package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// hitAllocCeiling caps the heap allocations of one design-cache hit of
// mcs6502 through Server.Handler(), recorder and request included: the
// request frame, the decode of the 11 KB source, one content hash and
// option key, the cache lookup and the response write. Allocation counts
// are deterministic, so this catches regressions that timing noise hides.
// Measured with Go 1.24: 58, down from 174 when the option key was built
// through the full knob map and the content hash copied the source. The
// ceiling adds 25% for differences between Go releases (CI builds with
// Go 1.22). A change may lower it; it must never raise it.
const hitAllocCeiling = 72

func TestDesignCacheHitAllocRatchet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	h := New(Config{}).Handler()
	body, err := json.Marshal(benchRequest(t, "mcs6502"))
	if err != nil {
		t.Fatal(err)
	}
	post := func(want string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-DAAD-Cache") != want {
			t.Fatalf("HTTP %d, cache %q, want 200 %s: %.200s", rec.Code, rec.Header().Get("X-DAAD-Cache"), want, rec.Body)
		}
	}
	post("miss")
	allocs := testing.AllocsPerRun(50, func() { post("hit") })
	t.Logf("allocs per design-cache hit: %.0f", allocs)
	if allocs > hitAllocCeiling {
		t.Errorf("a design-cache hit of mcs6502 made %.0f allocations, ceiling %d", allocs, hitAllocCeiling)
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool
