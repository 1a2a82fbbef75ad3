package flow

import (
	"crypto/sha256"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sched"
)

// ContentHash returns the input's cache identity: a SHA-256 over the name
// and source with a separator, so (name, source) pairs cannot collide by
// concatenation. It keys the front-end artifact cache here and the design
// cache in internal/serve. The strings reach the hash through a fixed
// buffer instead of a []byte conversion, which would copy the whole
// source on every call.
func (in Input) ContentHash() (k [sha256.Size]byte) {
	h := sha256.New()
	var buf [512]byte
	for _, s := range [...]string{in.Name, "\x00", in.Source} {
		for len(s) > 0 {
			n := copy(buf[:], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	h.Sum(k[:0])
	return k
}

// Key canonicalizes the options that determine a compilation's result into
// a stable string: equal option sets always produce equal keys, and
// distinct option sets (different allocator, scheduler, ablations, matcher
// cross-check, scheduler limits, cost model, fold slack, or emit/cosim
// stage selection) never share one. Each fragment spells its knob's
// canonical wire value (the spelling Options.Knobs returns), so defaults
// are normalized — the zero Options and an explicit {Allocator: "daa"}
// key identically — and result caches keyed by (Input.ContentHash,
// Options.Key) hit across equivalent spellings. Key writes the fragments
// straight from the option fields rather than through Knobs, because a
// design-cache hit computes it on every request; a test keeps the two
// spellings equal over the knob space. Knobs still at their default
// (scheduler, fold-slack) write no fragment, so keys for pre-existing
// option sets are byte-identical to what earlier releases produced (the
// golden key tests pin this).
//
// The baseline allocators ignore the DAA-only knobs (trace-rules,
// cleanup, crosscheck, journal, fold-slack), so for them Key writes those
// knobs at their defaults: option sets that compile one baseline design
// share one key. DAA keys are unaffected. The DAA ignores "scheduler" in
// turn; that fragment stays, since no synthesize request can set the knob.
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
	var b strings.Builder
	b.Grow(keySize)
	put := func(parts ...string) {
		for _, p := range parts {
			b.WriteString(p)
		}
	}
	alloc := o.Allocator
	if alloc == "" {
		alloc = AllocDAA
	}
	daa := o.Core // the DAA-only knobs, left at their defaults for a baseline
	if alloc == AllocLeftEdge || alloc == AllocNaive {
		daa = core.Options{}
	}
	put("alloc=", alloc,
		";trace-rules=", strconv.FormatBool(!daa.DisableTraceRules),
		";cleanup=", strconv.FormatBool(!daa.DisableCleanup),
		";exhaustive=false;lite=false;crosscheck=", strconv.FormatBool(daa.CrossCheckMatch),
		";journal=", strconv.FormatBool(daa.Journal))
	if o.Scheduler != "" && o.Scheduler != sched.SchedList {
		put(";scheduler=", o.Scheduler)
	}
	if v := formatFloatKnob(daa.FoldSlack); v != "0" {
		put(";fold-slack=", v)
	}
	limits := o.Core.Limits
	for _, name := range [...]string{";core-limits=", ";alloc-limits="} {
		put(name, "memports=1,maxops=", strconv.Itoa(limits.MaxOpsPerStep), ",units=", encodeUnits(limits.UnitsPerKind))
	}
	if m := o.Model; m == nil {
		put(";model=default")
	} else {
		put(";model=reg=", formatFloatKnob(m.RegBit),
			",mem=", formatFloatKnob(m.MemBit),
			",muxway=", formatFloatKnob(m.MuxWayBit),
			",link=", formatFloatKnob(m.LinkBit),
			",const=", formatFloatKnob(m.ConstBit),
			",port=", formatFloatKnob(m.PortBit),
			",state=", formatFloatKnob(m.StateCost),
			",fnsel=", formatFloatKnob(m.FnSelBit),
			",fn=", encodeKindMapF(m.FnBit))
	}
	put(";emit=", strconv.FormatBool(o.EmitVerilog), ";cosim=", strconv.FormatBool(o.Cosim))
	if o.Cosim {
		// Stimulus parameters shape the verdict, so they join the key —
		// but only while the stage is on: with cosim off a stray seed must
		// not split caches, and defaults are normalized like everything
		// else ({Cosim: true} and an explicit seed-1/4x4 key identically).
		// "mem=written" names the memory compare (every word either side
		// wrote), so no cache serves a verdict reached under an older,
		// narrower one.
		p := o.cosimParams()
		put(";cosim-stim=", strconv.FormatUint(p.Seed, 10), "/", strconv.Itoa(p.Vectors),
			"x", strconv.Itoa(p.Cycles), ",mem=written")
	}
	if !o.Cacheable() {
		// Uncacheable options still get distinct keys for logging, but two
		// different ExtraRules sets must not alias: mark the key unique-ish
		// by pointer-free content we can see, and let Cacheable gate reuse.
		put(";uncacheable(trace=", strconv.FormatBool(o.Core.Trace != nil),
			",extra-rules=", strconv.Itoa(len(o.Core.ExtraRules)), ")")
	}
	return b.String()
}

// keySize presizes Key's builder: the default key is 228 bytes, and the
// scheduler, fold-slack and cosim fragments fit beside it. Only a cost
// model override or a units table grows it.
const keySize = 320

// Cacheable reports whether Key fully determines the compilation result:
// false when the options carry live state (a firing-trace writer, extra
// rules) that a canonical key cannot capture. Result caches must not
// store or serve compilations whose options are not cacheable.
func (o Options) Cacheable() bool {
	return o.Core.Trace == nil && len(o.Core.ExtraRules) == 0
}
