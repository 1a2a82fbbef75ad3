package serve

// End-to-end tests of POST /v1/explore and the golden shard-key pins.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
)

// exploreRequest builds an explore request over an embedded benchmark with
// the standard 12-point test grid.
func exploreRequest(t *testing.T, name string) ExploreRequest {
	t.Helper()
	src, err := bench.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	return ExploreRequest{
		Name:   name + ".isps",
		Source: src,
		Grid: map[string]GridAxis{
			"allocator": {"daa", "leftedge", "naive"},
			"scheduler": {"list", "asap"},
			"cleanup":   {"true", "false"},
		},
	}
}

func TestExploreEndpointDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := exploreRequest(t, "gcd")
	req.NoCache = true // force both runs through the full sweep

	resp1, body1 := postJSON(t, ts.URL+"/v1/explore", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/explore", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("two uncached explore responses differ byte-for-byte")
	}
	if resp1.Header.Get("X-DAAD-Cache") != "bypass" && resp1.Header.Get("X-DAAD-Cache") != "miss" {
		// NoCache requests never answer "hit".
		t.Fatalf("unexpected cache state %q", resp1.Header.Get("X-DAAD-Cache"))
	}

	var er ExploreResponse
	if err := json.Unmarshal(body1, &er); err != nil {
		t.Fatal(err)
	}
	if er.GridPoints != 12 || er.Evaluated != 12 || er.Failed != 0 {
		t.Fatalf("grid=%d evaluated=%d failed=%d, want 12/12/0", er.GridPoints, er.Evaluated, er.Failed)
	}
	if er.Frontier == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(er.Points); i++ {
		if er.Points[i-1].KnobKey >= er.Points[i].KnobKey {
			t.Fatalf("points unsorted at %d: %q >= %q", i, er.Points[i-1].KnobKey, er.Points[i].KnobKey)
		}
	}

	// The cached path returns the same bytes with a hit header.
	req.NoCache = false
	_, first := postJSON(t, ts.URL+"/v1/explore", req)
	respHit, cached := postJSON(t, ts.URL+"/v1/explore", req)
	if respHit.Header.Get("X-DAAD-Cache") != "hit" {
		t.Fatalf("repeat explore not served from cache: %q", respHit.Header.Get("X-DAAD-Cache"))
	}
	if !bytes.Equal(first, cached) || !bytes.Equal(body1, cached) {
		t.Fatal("cached explore body differs from computed body")
	}

	// Explore traffic shows up in the metrics.
	m := s.Metrics()
	if m.Requests.Explore != 4 {
		t.Fatalf("explore request count %d, want 4", m.Requests.Explore)
	}
	if m.Requests.ExplorePoints != 4*12 {
		t.Fatalf("explore point count %d, want 48", m.Requests.ExplorePoints)
	}
}

func TestExploreEndpointRejectsBadRequests(t *testing.T) {
	src, err := bench.Source("gcd")
	if err != nil {
		t.Fatal(err)
	}

	// Over-large grid: 413 with the expansion size in the message. A
	// negative cap turns the endpoint off: every grid is too large.
	for _, c := range []struct {
		maxGrid int
		grid    map[string]GridAxis
		want    string
	}{
		{16, map[string]GridAxis{"cosim-seed": {"1..5"}, "maxops": {"0..4"}}, "25 points"},
		{-1, map[string]GridAxis{"cleanup": {"true"}}, "grid expands to 1 points, limit -1"},
	} {
		_, ts := newTestServer(t, Config{MaxGridPoints: c.maxGrid})
		resp, body := postJSON(t, ts.URL+"/v1/explore", ExploreRequest{Source: src, Grid: c.grid})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("MaxGridPoints %d: status %d: %s", c.maxGrid, resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Kind != KindRequest || !strings.Contains(er.Error, c.want) {
			t.Fatalf("MaxGridPoints %d: error %+v, want %q", c.maxGrid, er, c.want)
		}
	}

	_, ts := newTestServer(t, Config{MaxGridPoints: 16})

	for _, bad := range []ExploreRequest{
		{Source: "", Grid: map[string]GridAxis{"cleanup": {"true"}}}, // empty source
		{Source: src}, // empty grid
		{Source: src, Grid: map[string]GridAxis{"warp": {"1"}}},          // unknown knob
		{Source: src, Grid: map[string]GridAxis{"lite": {"true"}}},       // removed knob
		{Source: src, Grid: map[string]GridAxis{"allocator": {"wrong"}}}, // bad value
		{Source: src, Grid: map[string]GridAxis{"maxops": {"3..1"}}},     // inverted range
	} {
		resp, body := postJSON(t, ts.URL+"/v1/explore", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %+v: status %d: %s", bad.Grid, resp.StatusCode, body)
		}
	}
}

func TestExploreEndpointReportsFailedPoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A source the front end rejects: every point fails, the sweep is 200.
	resp, body := postJSON(t, ts.URL+"/v1/explore", ExploreRequest{
		Name:   "broken.isps",
		Source: "processor T { main m { X := 1 } }",
		Grid:   map[string]GridAxis{"cleanup": {"true", "false"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ExploreResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Failed != 2 || er.Evaluated != 0 {
		t.Fatalf("evaluated=%d failed=%d, want 0/2", er.Evaluated, er.Failed)
	}
	for _, p := range er.Points {
		if !p.Failed || len(p.Diagnostics) == 0 {
			t.Fatalf("point %s: failed=%t diags=%d", p.KnobKey, p.Failed, len(p.Diagnostics))
		}
	}
}

func TestExploreGridAxisWireForms(t *testing.T) {
	// The wire grid accepts arrays of strings/numbers/bools and single
	// strings with comma lists and ranges.
	var req ExploreRequest
	blob := `{"source":"x","grid":{
		"allocator": ["daa","leftedge"],
		"cosim-seed": [1,2],
		"cleanup": [true,false],
		"maxops": "0,2..6:2",
		"scheduler": "list,asap"
	}}`
	if err := json.Unmarshal([]byte(blob), &req); err != nil {
		t.Fatal(err)
	}
	grid, err := req.flowGrid()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"allocator":  {"daa", "leftedge"},
		"cleanup":    {"true", "false"},
		"cosim-seed": {"1", "2"},
		"maxops":     {"0", "2", "4", "6"},
		"scheduler":  {"list", "asap"},
	}
	for _, ax := range grid {
		w, ok := want[ax.Name]
		if !ok {
			t.Errorf("unexpected axis %s", ax.Name)
			continue
		}
		if fmt.Sprint(ax.Values) != fmt.Sprint(w) {
			t.Errorf("axis %s: %v, want %v", ax.Name, ax.Values, w)
		}
	}
	if grid.Points() != 2*2*4*2*2 {
		t.Errorf("points %d, want 64", grid.Points())
	}
}

func TestExploreShardKeyRoutesByContentOnly(t *testing.T) {
	a := ExploreRequest{Name: "x.isps", Source: "processor X { }",
		Grid: map[string]GridAxis{"cleanup": {"true"}}}
	b := ExploreRequest{Name: "x.isps", Source: "processor X { }",
		Grid: map[string]GridAxis{"allocator": {"daa", "naive"}}}
	b.Options.Allocator = "naive"
	if a.ShardKey() != b.ShardKey() {
		t.Fatal("explore shard key varies with grid/options; sweeps of one design must share a worker")
	}
	c := ExploreRequest{Name: "y.isps", Source: "processor Y { }",
		Grid: map[string]GridAxis{"cleanup": {"true"}}}
	if a.ShardKey() == c.ShardKey() {
		t.Fatal("distinct designs share an explore shard key")
	}
	if !strings.HasSuffix(a.ShardKey(), "|explore") {
		t.Fatalf("explore shard key %q lacks the |explore suffix", a.ShardKey())
	}
}

// TestGoldenShardKeys pins the routing/caching identity of every embedded
// benchmark under default options against testdata captured before the
// knob-space refactor. Any drift here silently splits every design cache
// and reshuffles cluster routing across a rolling upgrade.
func TestGoldenShardKeys(t *testing.T) {
	f, err := os.Open("testdata/golden_shard_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, want, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		src, err := bench.Source(name)
		if err != nil {
			t.Fatalf("benchmark %s: %v", name, err)
		}
		got, err := SynthesizeRequest{Name: name + ".isps", Source: src}.ShardKey()
		if err != nil {
			t.Fatalf("benchmark %s: %v", name, err)
		}
		if got != want {
			t.Errorf("benchmark %s: shard key drifted\n got %s\nwant %s", name, got, want)
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(bench.Names()) {
		t.Fatalf("golden file covers %d benchmarks, embedded set has %d", seen, len(bench.Names()))
	}
}
