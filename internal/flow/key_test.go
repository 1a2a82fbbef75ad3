package flow_test

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/flow"
	"repro/internal/prod"
	"repro/internal/sched"
	"repro/internal/vt"
)

// TestOptionsKeyDistinct pins the collision-freedom of the canonical
// option key: every semantically distinct option set must key
// differently, because both the design cache in internal/serve and any
// future result cache trust Key as the full identity of a compilation's
// configuration.
func TestOptionsKeyDistinct(t *testing.T) {
	tweakedModel := cost.Default()
	tweakedModel.RegBit = 99
	fnModel := cost.Default()
	fnModel.FnBit = map[vt.OpKind]float64{vt.OpAdd: 7, vt.OpSub: 9}
	fnModel2 := cost.Default()
	fnModel2.FnBit = map[vt.OpKind]float64{vt.OpAdd: 9, vt.OpSub: 7}

	sets := map[string]flow.Options{
		"default":          {},
		"leftedge":         {Allocator: flow.AllocLeftEdge},
		"naive":            {Allocator: flow.AllocNaive},
		"no-cleanup":       {Core: core.Options{DisableCleanup: true}},
		"no-trace-rules":   {Core: core.Options{DisableTraceRules: true}},
		"crosscheck":       {Core: core.Options{CrossCheckMatch: true}},
		"max-ops":          {Core: core.Options{Limits: sched.Limits{MaxOpsPerStep: 3}}},
		"units-capped":     {Core: core.Options{Limits: sched.Limits{UnitsPerKind: map[vt.OpKind]int{vt.OpAdd: 2}}}},
		"units-empty":      {Core: core.Options{Limits: sched.Limits{UnitsPerKind: map[vt.OpKind]int{}}}},
		"leftedge-max-ops": {Allocator: flow.AllocLeftEdge, Core: core.Options{Limits: sched.Limits{MaxOpsPerStep: 3}}},
		"leftedge-asap":    {Allocator: flow.AllocLeftEdge, Scheduler: sched.SchedASAP},
		"model-regbit":     {Model: &tweakedModel},
		"model-fnbit":      {Model: &fnModel},
		"model-fnbit-swap": {Model: &fnModel2},
		"emit":             {EmitVerilog: true},
		"cosim":            {Cosim: true},
		"emit+cosim":       {EmitVerilog: true, Cosim: true},
		"cosim-seed":       {Cosim: true, CosimSeed: 2},
		"cosim-vectors":    {Cosim: true, CosimVectors: 8},
		"cosim-cycles":     {Cosim: true, CosimCycles: 2},
	}
	seen := map[string]string{}
	for name, o := range sets {
		k := o.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("option sets %q and %q collide on key %q", name, prev, k)
		}
		seen[k] = name
		if k != o.Key() {
			t.Errorf("%s: Key is not stable", name)
		}
	}
}

// TestOptionsKeyNormalizesDefaults checks that equivalent spellings of the
// default configuration key identically, so caches hit across them.
func TestOptionsKeyNormalizesDefaults(t *testing.T) {
	base := flow.Options{}
	if got := (flow.Options{Allocator: flow.AllocDAA}).Key(); got != base.Key() {
		t.Errorf("explicit daa allocator keys differently:\n  %q\n  %q", got, base.Key())
	}
	// Cosim stimulus parameters only count while the stage is on: a stray
	// seed with Cosim off must not split caches…
	if got := (flow.Options{CosimSeed: 7, CosimVectors: 9}).Key(); got != base.Key() {
		t.Errorf("cosim parameters leaked into the key with the stage off:\n  %q\n  %q", got, base.Key())
	}
	// …and with it on, explicit defaults key like the zero values.
	on := flow.Options{Cosim: true}
	explicit := flow.Options{Cosim: true, CosimSeed: flow.DefaultCosimSeed,
		CosimVectors: flow.DefaultCosimVectors, CosimCycles: flow.DefaultCosimCycles}
	if on.Key() != explicit.Key() {
		t.Errorf("explicit cosim defaults key differently:\n  %q\n  %q", on.Key(), explicit.Key())
	}
}

// TestBaselineKeysIgnoreDAAKnobs checks that a baseline allocator keys
// like its plain option set whatever the DAA-only knobs say: the
// baselines ignore them, so such option sets compile one design and must
// share one design-cache entry.
func TestBaselineKeysIgnoreDAAKnobs(t *testing.T) {
	naive := flow.Options{Allocator: flow.AllocNaive}
	leftedge := flow.Options{Allocator: flow.AllocLeftEdge}
	for name, c := range map[string]struct{ got, want flow.Options }{
		"naive-no-cleanup":     {flow.Options{Allocator: flow.AllocNaive, Core: core.Options{DisableCleanup: true}}, naive},
		"leftedge-journal":     {flow.Options{Allocator: flow.AllocLeftEdge, Core: core.Options{Journal: true}}, leftedge},
		"naive-fold-slack":     {flow.Options{Allocator: flow.AllocNaive, Core: core.Options{FoldSlack: 3}}, naive},
		"naive-no-trace-rules": {flow.Options{Allocator: flow.AllocNaive, Core: core.Options{DisableTraceRules: true}}, naive},
		"leftedge-crosscheck":  {flow.Options{Allocator: flow.AllocLeftEdge, Core: core.Options{CrossCheckMatch: true}}, leftedge},
	} {
		if got, want := c.got.Key(), c.want.Key(); got != want {
			t.Errorf("%s keys differently from the plain baseline:\n  %q\n  %q", name, got, want)
		}
	}
}

// TestOptionsCacheable pins which options a result cache may store: live
// state (trace writers, extra rules) cannot be canonicalized and must be
// refused.
func TestOptionsCacheable(t *testing.T) {
	if !(flow.Options{}).Cacheable() {
		t.Error("default options not cacheable")
	}
	withTrace := flow.Options{Core: core.Options{Trace: io.Discard}}
	if withTrace.Cacheable() {
		t.Error("options with a firing-trace writer reported cacheable")
	}
	withRules := flow.Options{Core: core.Options{ExtraRules: []*prod.Rule{{Name: "x"}}}}
	if withRules.Cacheable() {
		t.Error("options with extra rules reported cacheable")
	}
	if withTrace.Key() == (flow.Options{}).Key() {
		t.Error("uncacheable options share a key with the default set")
	}
}

// TestInputContentHash pins the separator between name and source: the
// pairs ("ab", "c") and ("a", "bc") must hash differently.
func TestInputContentHash(t *testing.T) {
	a := flow.Input{Name: "ab", Source: "c"}
	b := flow.Input{Name: "a", Source: "bc"}
	if a.ContentHash() == b.ContentHash() {
		t.Error("name/source concatenation collides")
	}
	if a.ContentHash() != a.ContentHash() {
		t.Error("hash not stable")
	}
}
