package flow_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/flow"
)

// probeInput returns a tiny valid compilation unit unique to n.
func probeInput(n int) flow.Input {
	return flow.Input{
		Name:   fmt.Sprintf("lru-probe-%d.isps", n),
		Source: fmt.Sprintf("processor LRU%d { reg A<3:0> main m { A := A + %d } }", n, n+1),
	}
}

// TestFrontCacheLRUBound drives the artifact cache past its entry cap and
// checks the LRU contract a daemon depends on: the bound holds, evictions
// are counted, and an evicted source rebuilds (a miss) while a retained
// one is served (a hit).
func TestFrontCacheLRUBound(t *testing.T) {
	flow.ResetCache()
	flow.SetCacheCap(2)
	t.Cleanup(func() {
		flow.SetCacheCap(0) // restore the default bound
		flow.ResetCache()
	})

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := flow.FrontEnd(ctx, probeInput(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := flow.FrontCacheStats()
	if st.Entries != 2 || st.Cap != 2 {
		t.Fatalf("entries=%d cap=%d, want 2/2", st.Entries, st.Cap)
	}
	if st.Misses != 3 || st.Evictions != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 3 misses, 1 eviction, 0 hits", st)
	}

	// Probe 0 was least recently used and must have been evicted: loading
	// it again is a miss. Probe 2 is still resident: a hit.
	if _, err := flow.FrontEnd(ctx, probeInput(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := flow.FrontEnd(ctx, probeInput(2)); err != nil {
		t.Fatal(err)
	}
	st = flow.FrontCacheStats()
	if st.Misses != 4 {
		t.Errorf("misses=%d, want 4 (evicted source rebuilt)", st.Misses)
	}
	if st.Hits != 1 {
		t.Errorf("hits=%d, want 1 (resident source served)", st.Hits)
	}
}

// TestSetCacheCapEvictsImmediately shrinks the bound below the current
// population and checks the overflow is evicted at once.
func TestSetCacheCapEvictsImmediately(t *testing.T) {
	flow.ResetCache()
	flow.SetCacheCap(8)
	t.Cleanup(func() {
		flow.SetCacheCap(0)
		flow.ResetCache()
	})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := flow.FrontEnd(ctx, probeInput(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := flow.SetCacheCap(1); got != 1 {
		t.Fatalf("SetCacheCap returned %d, want 1", got)
	}
	st := flow.FrontCacheStats()
	if st.Entries != 1 {
		t.Errorf("entries=%d after rebound, want 1", st.Entries)
	}
	if st.Evictions != 4 {
		t.Errorf("evictions=%d, want 4", st.Evictions)
	}
}

// TestFrontCacheConcurrentFirstCompile starts N compiles of one new source
// at once. The cache hands out the slot under its lock, so every caller
// shares one once gate: the front end is one miss, N-1 hits, and exactly
// one compile reports an uncached parse stage.
func TestFrontCacheConcurrentFirstCompile(t *testing.T) {
	flow.ResetCache()
	t.Cleanup(flow.ResetCache)
	const n = 8
	in := probeInput(9)
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]*flow.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = flow.Compile(context.Background(), in, flow.Options{})
		}(i)
	}
	close(start)
	wg.Wait()
	built := 0
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if st, _ := res.Trace.Stage(flow.StageParse); !st.Cached {
			built++
		}
	}
	if built != 1 {
		t.Errorf("%d compiles ran the front end, want 1", built)
	}
	st := flow.FrontCacheStats()
	if st.Misses != 1 || st.Hits != n-1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 1 miss, %d hits, 1 entry", st, n-1)
	}
}
