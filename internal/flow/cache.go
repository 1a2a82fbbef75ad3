package flow

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
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
// Every compilation of a source shares its cached artifact, which is
// never copied and which callers treat as read-only. It holds the AST and
// the trace in up to two forms. The plain trace, as built, serves the
// baselines, FrontEnd, a DAA compile with its trace rules off, and a DAA
// compile that observes phase 0 (a firing trace, the matcher cross-check
// or a journal) and so refines a copy of its own. Phase 0's refinement of
// the trace, built once on the first DAA compile that asks for it, serves
// every other DAA compile, as the CMU front end handed the DAA a trace it
// had already refined. An artifact keeps only the forms asked for: the
// refinement adopts the plain trace if nothing has taken it, and a later
// plain request rebuilds that trace from the AST.

// frontArtifact is one memoized front-end run.
type frontArtifact struct {
	ast    *isps.Program
	stages []StageInfo // parse/sema/build timings of the original run

	mu     sync.Mutex
	trace  *vt.Program // the plain trace; nil once the refinement adopted it
	taken  bool        // trace was handed out, so it is shared and read-only
	refine *refineCall // the kept or in-flight refinement; nil before one
}

// refineCall is one build of an artifact's refinement. done closes when
// the build ends. A kept build answers every later DAA compile with ref
// (its timings zeroed: the work is reused, not repeated) or err; a build
// its context cancelled is dropped, and the next compile builds again.
type refineCall struct {
	done chan struct{}
	kept bool
	ref  core.Refinement
	err  error
}

// plain returns the value trace as built, which stays shared and
// read-only from then on. After the refinement adopted the trace
// buildFront made, the first plain request rebuilds it: vt.Build only
// reads the AST and is deterministic, so the rebuilt trace equals the one
// buildFront validated.
func (a *frontArtifact) plain() (*vt.Program, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.trace == nil {
		tr, err := vt.Build(a.ast)
		if err != nil {
			return nil, err
		}
		a.trace = tr
	}
	a.taken = true
	return a.trace, nil
}

// refinement returns phase 0's refinement of the artifact's trace. The
// first call builds it under its own ctx, refining the plain trace in
// place if nothing has taken it and a fresh build of it otherwise;
// concurrent calls wait for that build. A context error goes back to the
// compile whose context it was, and is not kept. Any other result,
// including a deterministic error such as the firing limit, answers every
// later call.
func (a *frontArtifact) refinement(ctx context.Context) (core.Refinement, error) {
	for {
		a.mu.Lock()
		c := a.refine
		if c == nil {
			c = &refineCall{done: make(chan struct{})}
			a.refine = c
			var tr *vt.Program // nil: build a fresh trace to refine
			if !a.taken {
				tr, a.trace = a.trace, nil // adopted: phase 0 refines it in place
			}
			a.mu.Unlock()
			return a.buildRefinement(ctx, c, tr)
		}
		a.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return core.Refinement{}, ctx.Err()
		}
		if c.kept {
			return c.ref, c.err
		}
	}
}

// buildRefinement runs phase 0 for call c on tr, or on a fresh build of
// the trace when tr is nil, and keeps the result unless ctx ended it. The
// caller gets the refinement with the times it measured.
func (a *frontArtifact) buildRefinement(ctx context.Context, c *refineCall, tr *vt.Program) (core.Refinement, error) {
	defer func() {
		if !c.kept { // cancelled, or a panic: the next compile builds again
			a.mu.Lock()
			a.refine = nil
			a.mu.Unlock()
		}
		close(c.done)
	}()
	if tr == nil {
		var err error
		if tr, err = vt.Build(a.ast); err != nil {
			return core.Refinement{}, err
		}
	}
	ref, err := core.Refine(ctx, tr, core.Options{})
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ref, err
	}
	c.ref, c.err, c.kept = ref, err, true
	c.ref.Stats = ref.Stats.Untimed()
	return ref, err
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

// frontStages returns the source's artifact and the front-stage timing
// records, building or reusing the cached artifact.
func frontStages(in Input) (*frontArtifact, []StageInfo, error) {
	e := frontCache.GetOrAdd(in.ContentHash(), func() *frontEntry { return new(frontEntry) })
	built := false
	e.once.Do(func() {
		built = true
		e.art, e.err = buildFront(in)
	})
	if e.err != nil {
		return nil, nil, e.err
	}
	if built {
		// This call paid for the real front end; report its timings (a
		// copy: the back end appends its stages).
		return e.art, append([]StageInfo(nil), e.art.stages...), nil
	}
	stages := []StageInfo{
		{Stage: StageParse, Cached: true},
		{Stage: StageSema, Cached: true},
		{Stage: StageBuild, Cached: true},
	}
	return e.art, stages, nil
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
