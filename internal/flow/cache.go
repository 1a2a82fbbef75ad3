package flow

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"repro/internal/isps"
	"repro/internal/lru"
	"repro/internal/vt"
)

// The artifact cache memoizes the front half of the pipeline (parse +
// sema + trace build/validation) keyed by a content hash of the input, so
// compiling the same source repeatedly — the experiment harness loads the
// MCS6502 nine-plus times across E2–E8, and a synthesis daemon sees the
// same sources for the lifetime of the process — pays for the front end
// once.
//
// The cache is a bounded LRU: a long-running server must not accumulate
// front-end artifacts for every source it has ever seen. When the entry
// cap is exceeded the least-recently-used artifact is evicted (and
// counted); a re-submission of an evicted source simply rebuilds it.
//
// The cached value trace is pristine: it is never handed to a caller
// directly, only as a vt.Clone, because the DAA's trace-refinement rules
// rewrite their input in place. The cached AST is shared (the back end
// never mutates it); callers must treat it as read-only.

// frontArtifact is one memoized front-end run.
type frontArtifact struct {
	ast    *isps.Program
	trace  *vt.Program // pristine master copy; hand out clones only
	stages []StageInfo // parse/sema/build timings of the original run
}

// frontEntry is the cache slot: the once gate makes concurrent compilations
// of the same source (RunAll fan-out, concurrent server requests) build
// the artifact exactly once, even if the entry is evicted mid-build.
type frontEntry struct {
	once sync.Once
	art  *frontArtifact
	err  error
}

// DefaultCacheCap is the front-end artifact cache's default entry bound:
// ample for the embedded benchmark suite plus a working set of user
// sources, small enough that a daemon fed unique sources stays flat.
const DefaultCacheCap = 256

// CacheStats is a point-in-time snapshot of a bounded result cache: the
// front-end artifact cache here, the design cache and explain store in
// internal/serve.
type CacheStats = lru.Stats

// frontCache maps a source's content hash to its artifact slot. Slots are
// created under the cache lock (GetOrAdd); the artifact build runs outside
// it, behind the slot's once gate.
var frontCache = lru.New[[sha256.Size]byte, *frontEntry](DefaultCacheCap)

// FrontCacheStats snapshots the artifact cache's counters.
func FrontCacheStats() CacheStats { return frontCache.Stats() }

// SetCacheCap rebounds the artifact cache to at most n entries (n <= 0
// restores DefaultCacheCap), evicting least-recently-used artifacts
// immediately if the cache is over the new bound, and returns the bound
// now in effect. Daemons size this to their expected working set.
func SetCacheCap(n int) int {
	if n <= 0 {
		n = DefaultCacheCap
	}
	frontCache.SetCap(n)
	return n
}

// ResetCache drops every cached front-end artifact and zeroes the counters
// (tests and memory-sensitive batch runs). The entry cap is kept.
func ResetCache() { frontCache.Reset() }

// frontStages returns the analyzed AST, a private clone of the validated
// value trace, and the front-stage timing records, building or reusing the
// cached artifact.
func frontStages(in Input, useCache bool) (*isps.Program, *vt.Program, []StageInfo, error) {
	if !useCache {
		art, err := buildFront(in)
		if err != nil {
			return nil, nil, nil, err
		}
		// Uncached artifacts are private: no clone needed.
		return art.ast, art.trace, art.stages, nil
	}
	e := frontCache.GetOrAdd(in.ContentHash(), func() *frontEntry { return new(frontEntry) })
	built := false
	e.once.Do(func() {
		built = true
		e.art, e.err = buildFront(in)
	})
	if e.err != nil {
		return nil, nil, nil, e.err
	}
	t0 := time.Now()
	clone := vt.Clone(e.art.trace)
	cloneD := time.Since(t0)
	if built {
		// This call paid for the real front end; report its timings, with
		// the clone attributed to the build stage.
		stages := append([]StageInfo(nil), e.art.stages...)
		stages[len(stages)-1].Elapsed += cloneD
		return e.art.ast, clone, stages, nil
	}
	stages := []StageInfo{
		{Stage: StageParse, Cached: true},
		{Stage: StageSema, Cached: true},
		{Stage: StageBuild, Elapsed: cloneD, Cached: true, Note: "clone of cached artifact"},
	}
	return e.art.ast, clone, stages, nil
}

// buildFront runs parse → sema → build → validate without the cache.
func buildFront(in Input) (*frontArtifact, error) {
	art := &frontArtifact{}

	t0 := time.Now()
	ast, err := isps.ParseOnly(in.Name, in.Source)
	if err != nil {
		return nil, Diagnose(StageParse, in, err)
	}
	art.stages = append(art.stages, StageInfo{
		Stage: StageParse, Elapsed: time.Since(t0),
		Note: fmt.Sprintf("%d bytes", len(in.Source)),
	})

	t0 = time.Now()
	if err := isps.Analyze(ast); err != nil {
		return nil, Diagnose(StageSema, in, err)
	}
	art.stages = append(art.stages, StageInfo{Stage: StageSema, Elapsed: time.Since(t0)})

	t0 = time.Now()
	trace, err := vt.Build(ast)
	if err != nil {
		return nil, Diagnose(StageBuild, in, err)
	}
	if err := trace.Validate(); err != nil {
		return nil, Diagnose(StageBuild, in, err)
	}
	st := trace.Stats()
	art.stages = append(art.stages, StageInfo{
		Stage: StageBuild, Elapsed: time.Since(t0),
		Note: fmt.Sprintf("%d ops, %d bodies, %d carriers", st.Ops, st.Bodies, st.Carriers),
	})

	art.ast, art.trace = ast, trace
	return art, nil
}
