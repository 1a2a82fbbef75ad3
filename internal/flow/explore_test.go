package flow_test

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/flow"
)

func gcdInput(t *testing.T) flow.Input {
	t.Helper()
	src, err := bench.Source("gcd")
	if err != nil {
		t.Fatal(err)
	}
	return flow.Input{Name: "gcd.isps", Source: src}
}

func TestParseGridSpec(t *testing.T) {
	g, err := flow.ParseGridSpec("allocator=daa,leftedge maxops=1..3 cleanup=true,false")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Points(); got != 12 {
		t.Fatalf("points %d, want 12", got)
	}
	// Axes sort by knob name.
	names := make([]string, len(g))
	for i, ax := range g {
		names[i] = ax.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("axes unsorted: %v", names)
	}
	// Range with step, duplicate canonicalization.
	g, err = flow.ParseGridSpec("maxops=0,2..6:2,2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "2", "4", "6"}
	if !reflect.DeepEqual(g[0].Values, want) {
		t.Fatalf("values %v, want %v", g[0].Values, want)
	}

	for _, bad := range []string{
		"",                     // empty grid
		"allocator",            // no values
		"allocator=",           // empty value
		"warp=1",               // unknown knob
		"allocator=quantum",    // out of domain
		"maxops=3..1",          // inverted range
		"maxops=1..4:0",        // zero step
		"maxops=1..4 maxops=2", // duplicate axis
		"allocator=1..3",       // range on an enum
	} {
		if _, err := flow.ParseGridSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestExploreDeterministicFront(t *testing.T) {
	in := gcdInput(t)
	grid, err := flow.ParseGridSpec("allocator=daa,leftedge,naive scheduler=list,asap cleanup=true,false")
	if err != nil {
		t.Fatal(err)
	}
	if grid.Points() != 12 {
		t.Fatalf("grid points %d, want 12", grid.Points())
	}
	a, err := flow.Explore(context.Background(), in, flow.Options{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := flow.Explore(context.Background(), in, flow.Options{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two explorations of the same grid differ")
	}
	if a.Evaluated != 12 || a.Failed != 0 {
		t.Fatalf("evaluated=%d failed=%d, want 12/0", a.Evaluated, a.Failed)
	}
	if a.Frontier == 0 {
		t.Fatal("empty frontier")
	}
	// Points sort by canonical knob key, and frontier points are never
	// dominated by any evaluated point.
	for i := 1; i < len(a.Points); i++ {
		if a.Points[i-1].KnobKey >= a.Points[i].KnobKey {
			t.Fatalf("points unsorted at %d: %q >= %q", i, a.Points[i-1].KnobKey, a.Points[i].KnobKey)
		}
	}
	if a.BaseKey != (flow.Options{}).Key() {
		t.Fatalf("base key %q", a.BaseKey)
	}
	// The default design point is in the sweep and carries the default
	// options key, so the sweep shares cache identity with plain requests.
	var sawDefault bool
	for _, p := range a.Points {
		if p.OptionsKey == (flow.Options{}).Key() {
			sawDefault = true
		}
	}
	if !sawDefault {
		t.Fatal("default point's OptionsKey does not match the default Options.Key")
	}
}

func TestExploreJournalAttachesProvenance(t *testing.T) {
	in := gcdInput(t)
	grid, err := flow.ParseGridSpec("cleanup=true,false")
	if err != nil {
		t.Fatal(err)
	}
	base := flow.Options{}
	base.Core.Journal = true
	front, err := flow.Explore(context.Background(), in, base, grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range front.Points {
		if p.Failed {
			t.Fatalf("point %s failed: %s", p.KnobKey, p.Err)
		}
		if p.Provenance == nil || p.Provenance.Firings == 0 {
			t.Fatalf("point %s: missing provenance summary with journal on", p.KnobKey)
		}
	}
}

func TestExploreReportsFailedPoints(t *testing.T) {
	in := gcdInput(t)
	// A hand-built grid can carry values ParseGrid would reject; Explore
	// must surface them as failed points, not errors.
	grid := flow.Grid{{Name: "allocator", Values: []string{"daa", "bogus"}}}
	front, err := flow.Explore(context.Background(), in, flow.Options{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if front.Evaluated != 1 || front.Failed != 1 {
		t.Fatalf("evaluated=%d failed=%d, want 1/1", front.Evaluated, front.Failed)
	}
	var failed *flow.Point
	for i := range front.Points {
		if front.Points[i].Failed {
			failed = &front.Points[i]
		}
	}
	if failed == nil || !strings.Contains(failed.Err, "allocator") {
		t.Fatalf("failed point not reported usefully: %+v", failed)
	}
	if failed.Frontier {
		t.Fatal("failed point marked frontier")
	}
}

func TestExploreFailedSourceIsPerPointDiagnostic(t *testing.T) {
	in := flow.Input{Name: "broken.isps", Source: "processor T { main m { X := 1 } }"}
	grid := flow.Grid{{Name: "cleanup", Values: []string{"true", "false"}}}
	front, err := flow.Explore(context.Background(), in, flow.Options{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if front.Failed != 2 || front.Evaluated != 0 {
		t.Fatalf("evaluated=%d failed=%d, want 0/2", front.Evaluated, front.Failed)
	}
	for _, p := range front.Points {
		if len(p.Diags) == 0 {
			t.Fatalf("point %s: no positioned diagnostics: %s", p.KnobKey, p.Err)
		}
	}
}

func TestExploreGridCap(t *testing.T) {
	in := gcdInput(t)
	grid, err := flow.ParseGridSpec("maxops=1..100 cosim-seed=1..50")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flow.Explore(context.Background(), in, flow.Options{}, grid); err == nil {
		t.Fatal("over-large grid accepted")
	} else if !flow.IsUsage(err) {
		t.Fatalf("want usage error, got %v", err)
	}
}

func TestExploreCanceledContext(t *testing.T) {
	in := gcdInput(t)
	grid, _ := flow.ParseGridSpec("cleanup=true,false")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := flow.Explore(ctx, in, flow.Options{}, grid); err == nil {
		t.Fatal("canceled context did not abort")
	}
}

// TestExploreCompilesEachKeyOnce checks that points sharing an options key
// share one compile. A naive sweep over a DAA-only knob and the scheduler
// has four points and two distinct keys (one per scheduler); a DAA sweep
// over the scheduler and cleanup has six points and two keys (one per
// cleanup setting). Each compiles twice. Compiles are counted as
// front-end cache lookups, one per compile.
func TestExploreCompilesEachKeyOnce(t *testing.T) {
	in := gcdInput(t)
	for _, tc := range []struct {
		spec         string
		points, keys int
	}{
		{"allocator=naive cleanup=true,false scheduler=list,asap", 4, 2},
		{"allocator=daa scheduler=list,asap,alap cleanup=true,false", 6, 2},
	} {
		grid, err := flow.ParseGridSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		before := flow.FrontCacheStats()
		front, err := flow.Explore(context.Background(), in, flow.Options{}, grid)
		if err != nil {
			t.Fatal(err)
		}
		after := flow.FrontCacheStats()
		if compiles := (after.Hits + after.Misses) - (before.Hits + before.Misses); compiles != int64(tc.keys) {
			t.Errorf("%s: %d compiles for %d points, want %d", tc.spec, compiles, len(front.Points), tc.keys)
		}
		// Points that share a key share the compile's outcome.
		byKey := map[string]flow.Point{}
		for _, p := range front.Points {
			if p.Failed {
				t.Fatalf("%s: point %s failed: %s", tc.spec, p.KnobKey, p.Err)
			}
			if q, ok := byKey[p.OptionsKey]; ok && q.Metrics != p.Metrics {
				t.Errorf("%s: points %s and %s share a key but not metrics: %+v, %+v", tc.spec, q.KnobKey, p.KnobKey, q.Metrics, p.Metrics)
			}
			byKey[p.OptionsKey] = p
		}
		if len(front.Points) != tc.points || len(byKey) != tc.keys {
			t.Fatalf("%s: %d points over %d keys, want %d over %d", tc.spec, len(front.Points), len(byKey), tc.points, tc.keys)
		}
	}
}
