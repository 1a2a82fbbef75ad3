package flow

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sched"
	"repro/internal/vt"
)

// ContentHash returns the input's cache identity: a SHA-256 over the name
// and source with a separator, so (name, source) pairs cannot collide by
// concatenation. It keys the front-end artifact cache here and the design
// cache in internal/serve.
func (in Input) ContentHash() [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(in.Name))
	h.Write([]byte{0})
	h.Write([]byte(in.Source))
	var k [sha256.Size]byte
	copy(k[:], h.Sum(nil))
	return k
}

// Key canonicalizes the options that determine a compilation's result into
// a stable string: equal option sets always produce equal keys, and
// distinct option sets (different allocator, scheduler, ablations, matcher
// cross-check, scheduler limits, cost model, fold slack, or emit/cosim
// stage selection) never share one. Key is built from the canonical knob
// encoding (Options.Knobs), so defaults are normalized — the zero Options
// and an explicit {Allocator: "daa"} key identically — and result caches
// keyed by (Input.ContentHash, Options.Key) hit across equivalent
// spellings. Knobs still at their default (scheduler, fold-slack) write no
// fragment, so keys for pre-existing option sets are byte-identical to
// what earlier releases produced (the golden key tests pin this).
//
// The baseline allocators ignore the DAA-only knobs (daaOnlyKnobs), so
// for them Key writes those knobs at their defaults: option sets that
// compile one baseline design share one key. DAA keys are unaffected.
//
// Both limits fragments are written from Core.Limits, which all three
// allocators schedule under. The baselines once carried a second copy of
// the limits, and every key in service spells both fragments.
//
// Key covers only declarative options. Live state that cannot be
// canonicalized — a firing-trace writer, extra rules — is flagged by
// Cacheable.
//
// The "exhaustive=false" and "lite=false" fragments are literals: they
// once named an exhaustive driving mode of the engine and a second
// incremental matcher, both since removed (the exhaustive matcher survives
// only as the crosscheck oracle). So is "memports=1" in both limits
// fragments: it once named a memory-port limit, removed because the
// register-transfer model gives each memory one port. Every design-cache,
// shard and explain key in service (and the golden keys) carries them, so
// dropping them would silently split every cache and reshuffle cluster
// routing.
func (o Options) Key() string {
	k := o.Knobs()
	if a := k["allocator"]; a == AllocLeftEdge || a == AllocNaive {
		for _, name := range daaOnlyKnobs {
			k[name] = knobIndex[name].Default
		}
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
	writeLimits(&b, o.Core.Limits)
	b.WriteString(";alloc-limits=")
	writeLimits(&b, o.Core.Limits)
	b.WriteString(";model=")
	if o.Model == nil {
		b.WriteString("default")
	} else {
		m := o.Model
		fmt.Fprintf(&b, "reg=%g,mem=%g,muxway=%g,link=%g,const=%g,port=%g,state=%g,fnsel=%g,fn=",
			m.RegBit, m.MemBit, m.MuxWayBit, m.LinkBit, m.ConstBit, m.PortBit, m.StateCost, m.FnSelBit)
		writeKindMapF(&b, m.FnBit)
	}
	fmt.Fprintf(&b, ";emit=%t;cosim=%t", o.EmitVerilog, o.Cosim)
	if o.Cosim {
		// Stimulus parameters shape the verdict, so they join the key —
		// but only while the stage is on: with cosim off a stray seed must
		// not split caches, and defaults are normalized like everything
		// else ({Cosim: true} and an explicit seed-1/4x4 key identically).
		// "mem=written" names the memory compare (every word either side
		// wrote), so no cache serves a verdict reached under an older,
		// narrower one.
		p := o.cosimParams()
		fmt.Fprintf(&b, ";cosim-stim=%d/%dx%d,mem=written", p.Seed, p.Vectors, p.Cycles)
	}
	if !o.Cacheable() {
		// Uncacheable options still get distinct keys for logging, but two
		// different ExtraRules sets must not alias: mark the key unique-ish
		// by pointer-free content we can see, and let Cacheable gate reuse.
		fmt.Fprintf(&b, ";uncacheable(trace=%t,extra-rules=%d)", o.Core.Trace != nil, len(o.Core.ExtraRules))
	}
	return b.String()
}

// daaOnlyKnobs are the knobs only the DAA reads. The DAA ignores
// "scheduler" in turn; that fragment stays, since no synthesize request
// can set the knob.
var daaOnlyKnobs = []string{"trace-rules", "cleanup", "crosscheck", "journal", "fold-slack"}

// Cacheable reports whether Key fully determines the compilation result:
// false when the options carry live state (a firing-trace writer, extra
// rules) that a canonical key cannot capture. Result caches must not
// store or serve compilations whose options are not cacheable.
func (o Options) Cacheable() bool {
	return o.Core.Trace == nil && len(o.Core.ExtraRules) == 0
}

// writeLimits canonicalizes sched.Limits: map entries sort by operator
// kind, and the nil map (the "one unit per compute kind" default) is
// spelled distinctly from an explicit empty or populated map.
func writeLimits(b *strings.Builder, l sched.Limits) {
	fmt.Fprintf(b, "memports=1,maxops=%d,units=", l.MaxOpsPerStep)
	if l.UnitsPerKind == nil {
		b.WriteString("default")
		return
	}
	kinds := make([]int, 0, len(l.UnitsPerKind))
	for k := range l.UnitsPerKind {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for i, k := range kinds {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(b, "%s:%d", vt.OpKind(k), l.UnitsPerKind[vt.OpKind(k)])
	}
}

// writeKindMapF canonicalizes a per-kind float map, sorted by kind.
func writeKindMapF(b *strings.Builder, m map[vt.OpKind]float64) {
	kinds := make([]int, 0, len(m))
	for k := range m {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for i, k := range kinds {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(b, "%s:%g", vt.OpKind(k), m[vt.OpKind(k)])
	}
}
