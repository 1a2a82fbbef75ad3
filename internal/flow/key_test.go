package flow_test

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
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

// oracleKey is the reference spelling of Options.Key: the key read from
// the knob map (Options.Knobs) and written with fmt, with the allocator
// rules applied to the knob map. Key writes the same bytes straight from
// the option fields; TestKeyMatchesKnobOracle and FuzzKnobRoundTrip keep
// the two equal.
func oracleKey(o flow.Options) string {
	k := o.Knobs()
	ignored := []string{"scheduler"} // the DAA ignores the baselines' scheduler
	if a := k["allocator"]; a == flow.AllocLeftEdge || a == flow.AllocNaive {
		// The baselines ignore the DAA-only knobs.
		ignored = []string{"trace-rules", "cleanup", "crosscheck", "journal", "fold-slack"}
	}
	for _, name := range ignored {
		knob, _ := flow.KnobByName(name)
		k[name] = knob.Default
	}
	var b strings.Builder
	fmt.Fprintf(&b, "alloc=%s", k["allocator"])
	fmt.Fprintf(&b, ";trace-rules=%s;cleanup=%s;exhaustive=false;lite=false;crosscheck=%s;journal=%s",
		k["trace-rules"], k["cleanup"], k["crosscheck"], k["journal"])
	if v := k["scheduler"]; v != sched.SchedList {
		fmt.Fprintf(&b, ";scheduler=%s", v)
	}
	if v := k["fold-slack"]; v != "0" {
		fmt.Fprintf(&b, ";fold-slack=%s", v)
	}
	b.WriteString(";core-limits=")
	oracleLimits(&b, o.Core.Limits)
	b.WriteString(";alloc-limits=")
	oracleLimits(&b, o.Core.Limits)
	b.WriteString(";model=")
	if m := o.Model; m == nil {
		b.WriteString("default")
	} else {
		fmt.Fprintf(&b, "reg=%g,mem=%g,muxway=%g,link=%g,const=%g,port=%g,state=%g,fnsel=%g,fn=",
			m.RegBit, m.MemBit, m.MuxWayBit, m.LinkBit, m.ConstBit, m.PortBit, m.StateCost, m.FnSelBit)
		oracleKindMap(&b, m.FnBit, "%s:%g")
	}
	fmt.Fprintf(&b, ";emit=%t;cosim=%t", o.EmitVerilog, o.Cosim)
	if o.Cosim {
		fmt.Fprintf(&b, ";cosim-stim=%s/%sx%s,mem=written", k["cosim-seed"], k["cosim-vectors"], k["cosim-cycles"])
	}
	if !o.Cacheable() {
		fmt.Fprintf(&b, ";uncacheable(trace=%t,extra-rules=%d)", o.Core.Trace != nil, len(o.Core.ExtraRules))
	}
	return b.String()
}

// oracleLimits spells sched.Limits: the nil units map ("one unit per
// compute kind") is "default", distinct from an empty or populated map.
func oracleLimits(b *strings.Builder, l sched.Limits) {
	fmt.Fprintf(b, "memports=1,maxops=%d,units=", l.MaxOpsPerStep)
	if l.UnitsPerKind == nil {
		b.WriteString("default")
		return
	}
	oracleKindMap(b, l.UnitsPerKind, "%s:%d")
}

// oracleKindMap spells a per-kind table sorted by kind, entries joined by +.
func oracleKindMap[V int | float64](b *strings.Builder, m map[vt.OpKind]V, entry string) {
	kinds := make([]int, 0, len(m))
	for k := range m {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for i, k := range kinds {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(b, entry, vt.OpKind(k), m[vt.OpKind(k)])
	}
}

// TestKeyMatchesKnobOracle pins Key to the knob space: for every knob's
// sample value, under each allocator and with cosim on and off, Key
// writes exactly the oracle's bytes. Option sets the knobs cannot build
// (a model override equal to the default, signed zeros, live state) are
// checked beside them.
func TestKeyMatchesKnobOracle(t *testing.T) {
	check := func(name string, o flow.Options) {
		t.Helper()
		if got, want := o.Key(), oracleKey(o); got != want {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
	for _, alloc := range []string{flow.AllocDAA, flow.AllocLeftEdge, flow.AllocNaive} {
		for _, cosim := range []string{"false", "true"} {
			check(fmt.Sprintf("%s/cosim=%s", alloc, cosim), knobOptions(t, map[string]string{"allocator": alloc, "cosim": cosim}))
			for knob, v := range knobSamples {
				check(fmt.Sprintf("%s/cosim=%s/%s=%s", alloc, cosim, knob, v),
					knobOptions(t, map[string]string{"allocator": alloc, "cosim": cosim, knob: v}))
			}
		}
	}
	def := cost.Default()
	// Weights whose %g spelling takes an exponent, a sign or a long
	// fraction, one per field, so any other float spelling shows.
	odd := cost.Model{
		RegBit: math.Inf(1), MemBit: 1e-7, MuxWayBit: 1e21, LinkBit: math.Copysign(0, -1),
		ConstBit: math.NaN(), PortBit: 123456789, StateCost: 2.5e-10, FnSelBit: 1e100,
		FnBit: map[vt.OpKind]float64{vt.OpAdd: 1e21, vt.OpShl: 1.0 / 3},
	}
	for name, o := range map[string]flow.Options{
		"default-model":      {Model: &def},
		"odd-model":          {Model: &odd},
		"units-empty":        {Core: core.Options{Limits: sched.Limits{UnitsPerKind: map[vt.OpKind]int{}}}},
		"units-many":         {Core: core.Options{Limits: sched.Limits{MaxOpsPerStep: 12, UnitsPerKind: map[vt.OpKind]int{vt.OpSub: 3, vt.OpAdd: 0, vt.OpShr: 2}}}},
		"fold-slack-neg-0":   {Core: core.Options{FoldSlack: math.Copysign(0, -1)}},
		"naive-fold-slack":   {Allocator: flow.AllocNaive, Core: core.Options{FoldSlack: 2}},
		"unknown-allocator":  {Allocator: "quantum", Core: core.Options{Journal: true}},
		"cosim-big-seed":     {Cosim: true, CosimSeed: 1 << 40, CosimVectors: 100, CosimCycles: 1000},
		"trace-writer":       {Core: core.Options{Trace: io.Discard}},
		"extra-rules":        {Allocator: flow.AllocLeftEdge, Core: core.Options{ExtraRules: []*prod.Rule{{Name: "x"}, {Name: "y"}}}},
		"everything-at-once": {Allocator: flow.AllocDAA, Scheduler: sched.SchedALAP, Model: &odd, EmitVerilog: true, Cosim: true, Core: core.Options{DisableCleanup: true, DisableTraceRules: true, CrossCheckMatch: true, Journal: true, FoldSlack: 0.25}},
	} {
		check(name, o)
	}
}

// knobOptions builds an option set from a knob assignment.
func knobOptions(t *testing.T, m map[string]string) flow.Options {
	t.Helper()
	var o flow.Options
	if err := o.ApplyKnobs(m); err != nil {
		t.Fatal(err)
	}
	return o
}
