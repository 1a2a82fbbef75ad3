package flow

// The knob space is the unified, enumerable view of every synthesis option
// that shapes a compilation result: allocator and scheduler selection,
// resource limits, cost-model weights, the ALU-fold threshold, the
// trace/cleanup ablations, the matcher cross-check, and the emit/cosim
// stages. Each knob has a wire name, a typed domain, a canonical default,
// and string get/set accessors over Options, so the whole space
// round-trips through plain map[string]string — the form /v1/explore
// grids, daa -explore specs, and Options.Key all build on.
//
// Live state a string cannot carry (Core.Trace, Core.ExtraRules) is
// deliberately outside the knob space, exactly as it is outside
// Options.Key.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/sched"
	"repro/internal/vt"
)

// Knob kinds, the wire-level type of a knob's values.
const (
	KnobBool  = "bool"
	KnobInt   = "int"
	KnobFloat = "float"
	KnobEnum  = "enum"
	KnobMap   = "map" // per-operator-kind table, e.g. "add:1+sub:2" or "default"
)

// Knob describes one synthesis option: its wire name, value kind, domain
// (enum knobs), canonical default, and documentation. Values travel as
// strings in their canonical spelling (booleans "true"/"false", floats in
// %g form, kind maps sorted by operator kind).
type Knob struct {
	Name    string
	Kind    string
	Default string
	Domain  []string // enum values, first is the default; nil otherwise
	Doc     string

	get func(*Options) string
	set func(*Options, string) error
}

// Get returns the knob's canonical wire value on an option set.
func (k Knob) Get(o Options) string { return k.get(&o) }

// Set applies a wire value onto an option set, validating it against the
// knob's kind and domain.
func (k Knob) Set(o *Options, v string) error { return k.set(o, v) }

// KnobSpace returns the registry of every synthesis knob, sorted by name.
func KnobSpace() []Knob {
	return knobRegistry
}

// KnobByName looks a knob up by wire name.
func KnobByName(name string) (Knob, bool) {
	k, ok := knobIndex[name]
	return k, ok
}

// KnobNames returns the sorted wire names of the knob space.
func KnobNames() []string {
	names := make([]string, len(knobRegistry))
	for i, k := range knobRegistry {
		names[i] = k.Name
	}
	return names
}

// Knobs returns the canonical wire value of every knob on this option set —
// the full coordinates of the compilation in the option space. ApplyKnobs
// of the returned map onto a zero Options reconstructs an option set with
// an identical Key.
func (o Options) Knobs() map[string]string {
	m := make(map[string]string, len(knobRegistry))
	for _, k := range knobRegistry {
		m[k.Name] = k.get(&o)
	}
	return m
}

// ApplyKnobs sets the named knobs on the option set, leaving unnamed knobs
// untouched. Unknown names and out-of-domain values are errors (the option
// set may be partially updated then). Knobs apply in sorted name order and
// the cost model is renormalized afterwards, so equal assignments always
// produce equal option sets.
func (o *Options) ApplyKnobs(m map[string]string) error {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		k, ok := knobIndex[name]
		if !ok {
			return fmt.Errorf("unknown knob %q (valid: %s)", name, strings.Join(KnobNames(), ", "))
		}
		if err := k.set(o, m[name]); err != nil {
			return fmt.Errorf("knob %s: %v", name, err)
		}
	}
	o.normalizeModel()
	return nil
}

// normalizeModel drops a cost-model override that equals the default, so
// knob-built option sets stay in canonical form (Key spells the default
// model "default").
func (o *Options) normalizeModel() {
	if o.Model != nil && modelEqual(*o.Model, cost.Default()) {
		o.Model = nil
	}
}

func modelEqual(a, b cost.Model) bool {
	if a.RegBit != b.RegBit || a.MemBit != b.MemBit || a.MuxWayBit != b.MuxWayBit ||
		a.LinkBit != b.LinkBit || a.ConstBit != b.ConstBit || a.PortBit != b.PortBit ||
		a.StateCost != b.StateCost || a.FnSelBit != b.FnSelBit {
		return false
	}
	return encodeKindMapF(a.FnBit) == encodeKindMapF(b.FnBit)
}

// model returns the effective cost model (the override or the default).
func (o *Options) model() cost.Model {
	if o.Model != nil {
		return *o.Model
	}
	return cost.Default()
}

// ensureModel materializes the cost-model override for mutation, starting
// from the default (with a private FnBit map).
func (o *Options) ensureModel() *cost.Model {
	if o.Model == nil {
		m := cost.Default()
		o.Model = &m
	}
	return o.Model
}

// --- wire-form helpers ---

func parseBoolKnob(v string) (bool, error) {
	switch v {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("want true or false, got %q", v)
}

func formatFloatKnob(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func parseFloatKnob(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("want a number, got %q", v)
	}
	return f, nil
}

// encodeUnits spells a UnitsPerKind table: nil is "default" (one unit per
// compute kind present in the trace); entries sort by operator kind.
func encodeUnits(m map[vt.OpKind]int) string {
	if m == nil {
		return "default"
	}
	kinds := make([]int, 0, len(m))
	for k := range m {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	var b strings.Builder
	for i, k := range kinds {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%s:%d", vt.OpKind(k), m[vt.OpKind(k)])
	}
	return b.String()
}

func parseUnits(v string) (map[vt.OpKind]int, error) {
	if v == "default" {
		return nil, nil
	}
	m := map[vt.OpKind]int{}
	for _, ent := range strings.Split(v, "+") {
		name, count, ok := strings.Cut(ent, ":")
		if !ok {
			return nil, fmt.Errorf("want kind:count entries joined by +, got %q", ent)
		}
		kind, ok := vt.OpKindByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown operator kind %q", name)
		}
		n, err := strconv.Atoi(count)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("want a non-negative count for %s, got %q", name, count)
		}
		m[kind] = n
	}
	return m, nil
}

// encodeKindMapF spells a per-kind float table sorted by kind; nil encodes
// as the empty string (callers decide what nil means).
func encodeKindMapF(m map[vt.OpKind]float64) string {
	kinds := make([]int, 0, len(m))
	for k := range m {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	var b strings.Builder
	for i, k := range kinds {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%s:%g", vt.OpKind(k), m[vt.OpKind(k)])
	}
	return b.String()
}

func parseKindMapF(v string) (map[vt.OpKind]float64, error) {
	m := map[vt.OpKind]float64{}
	for _, ent := range strings.Split(v, "+") {
		name, val, ok := strings.Cut(ent, ":")
		if !ok {
			return nil, fmt.Errorf("want kind:weight entries joined by +, got %q", ent)
		}
		kind, ok := vt.OpKindByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown operator kind %q", name)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("want a weight for %s, got %q", name, val)
		}
		m[kind] = f
	}
	return m, nil
}

// --- knob constructors ---

func boolKnob(name, doc string, def bool, get func(*Options) bool, set func(*Options, bool)) Knob {
	return Knob{
		Name: name, Kind: KnobBool, Default: strconv.FormatBool(def), Doc: doc,
		get: func(o *Options) string { return strconv.FormatBool(get(o)) },
		set: func(o *Options, v string) error {
			b, err := parseBoolKnob(v)
			if err != nil {
				return err
			}
			set(o, b)
			return nil
		},
	}
}

func intKnob(name, doc string, def int, min int, get func(*Options) int, set func(*Options, int)) Knob {
	return Knob{
		Name: name, Kind: KnobInt, Default: strconv.Itoa(def), Doc: doc,
		get: func(o *Options) string { return strconv.Itoa(get(o)) },
		set: func(o *Options, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("want an integer, got %q", v)
			}
			if n < min {
				return fmt.Errorf("want >= %d, got %d", min, n)
			}
			set(o, n)
			return nil
		},
	}
}

func floatKnob(name, doc string, def float64, min float64, get func(*Options) float64, set func(*Options, float64)) Knob {
	return Knob{
		Name: name, Kind: KnobFloat, Default: formatFloatKnob(def), Doc: doc,
		get: func(o *Options) string { return formatFloatKnob(get(o)) },
		set: func(o *Options, v string) error {
			f, err := parseFloatKnob(v)
			if err != nil {
				return err
			}
			if f < min {
				return fmt.Errorf("want >= %g, got %g", min, f)
			}
			set(o, f)
			return nil
		},
	}
}

func enumKnob(name, doc string, domain []string, get func(*Options) string, set func(*Options, string)) Knob {
	return Knob{
		Name: name, Kind: KnobEnum, Default: domain[0], Domain: domain, Doc: doc,
		get: func(o *Options) string { return get(o) },
		set: func(o *Options, v string) error {
			for _, d := range domain {
				if v == d {
					set(o, v)
					return nil
				}
			}
			return fmt.Errorf("want one of %s, got %q", strings.Join(domain, ", "), v)
		},
	}
}

// costKnob binds one scalar cost-model weight.
func costKnob(name, doc string, def float64, read func(*cost.Model) *float64) Knob {
	return floatKnob(name, doc, def, 0,
		func(o *Options) float64 { m := o.model(); return *read(&m) },
		func(o *Options, f float64) { *read(o.ensureModel()) = f },
	)
}

func buildKnobRegistry() []Knob {
	def := cost.Default()
	knobs := []Knob{
		enumKnob("allocator", "back-end selection: the DAA knowledge-based allocator or a baseline",
			[]string{AllocDAA, AllocLeftEdge, AllocNaive},
			func(o *Options) string {
				if o.Allocator == "" {
					return AllocDAA
				}
				return o.Allocator
			},
			func(o *Options, v string) { o.Allocator = v }),
		enumKnob("scheduler", "control-step scheduling policy for the baseline allocators (the DAA's control phase places operators by rule)",
			sched.Schedulers(),
			func(o *Options) string {
				if o.Scheduler == "" {
					return sched.SchedList
				}
				return o.Scheduler
			},
			func(o *Options, v string) { o.Scheduler = v }),
		boolKnob("trace-rules", "run phase 0 trace refinement (the paper's in-place VT rewrites)", true,
			func(o *Options) bool { return !o.Core.DisableTraceRules },
			func(o *Options, v bool) { o.Core.DisableTraceRules = !v }),
		boolKnob("cleanup", "run the final global-improvement phase", true,
			func(o *Options) bool { return !o.Core.DisableCleanup },
			func(o *Options, v bool) { o.Core.DisableCleanup = !v }),
		boolKnob("crosscheck", "run the Rete network and the exhaustive matcher in lockstep, halting on divergence", false,
			func(o *Options) bool { return o.Core.CrossCheckMatch },
			func(o *Options, v bool) { o.Core.CrossCheckMatch = v }),
		boolKnob("journal", "record rule-firing effects and build the provenance index", false,
			func(o *Options) bool { return o.Core.Journal },
			func(o *Options, v bool) { o.Core.Journal = v }),
		intKnob("maxops", "cap on operators per control step (0 = uncapped)", 0, 0,
			func(o *Options) int { return o.Core.Limits.MaxOpsPerStep },
			func(o *Options, n int) { o.Core.Limits.MaxOpsPerStep = n }),
		{
			Name: "units", Kind: KnobMap, Default: "default",
			Doc: "functional units per operator kind, e.g. add:2+sub:1 (default: one per kind present)",
			get: func(o *Options) string { return encodeUnits(o.Core.Limits.UnitsPerKind) },
			set: func(o *Options, v string) error {
				m, err := parseUnits(v)
				if err != nil {
					return err
				}
				o.Core.Limits.UnitsPerKind = m
				return nil
			},
		},
		floatKnob("fold-slack", "gate equivalents an ALU fold may cost before the cleanup experts refuse it", 0, 0,
			func(o *Options) float64 { return o.Core.FoldSlack },
			func(o *Options, f float64) { o.Core.FoldSlack = f }),
		costKnob("cost.reg", "gate equivalents per register bit", def.RegBit,
			func(m *cost.Model) *float64 { return &m.RegBit }),
		costKnob("cost.mem", "gate equivalents per memory bit", def.MemBit,
			func(m *cost.Model) *float64 { return &m.MemBit }),
		costKnob("cost.muxway", "gate equivalents per multiplexer way-bit", def.MuxWayBit,
			func(m *cost.Model) *float64 { return &m.MuxWayBit }),
		costKnob("cost.link", "gate equivalents per link bit", def.LinkBit,
			func(m *cost.Model) *float64 { return &m.LinkBit }),
		costKnob("cost.const", "gate equivalents per constant bit", def.ConstBit,
			func(m *cost.Model) *float64 { return &m.ConstBit }),
		costKnob("cost.port", "gate equivalents per port bit", def.PortBit,
			func(m *cost.Model) *float64 { return &m.PortBit }),
		costKnob("cost.state", "gate equivalents per control state", def.StateCost,
			func(m *cost.Model) *float64 { return &m.StateCost }),
		costKnob("cost.fnsel", "gate equivalents per extra function select, per bit", def.FnSelBit,
			func(m *cost.Model) *float64 { return &m.FnSelBit }),
		{
			Name: "cost.fn", Kind: KnobMap, Default: "default",
			Doc: "per-function unit weights, e.g. add:12+sub:14 (unlisted kinds cost 4)",
			get: func(o *Options) string {
				m := o.model()
				if encodeKindMapF(m.FnBit) == encodeKindMapF(def.FnBit) {
					return "default"
				}
				return encodeKindMapF(m.FnBit)
			},
			set: func(o *Options, v string) error {
				if v == "default" {
					o.ensureModel().FnBit = cost.Default().FnBit
					return nil
				}
				m, err := parseKindMapF(v)
				if err != nil {
					return err
				}
				o.ensureModel().FnBit = m
				return nil
			},
		},
		boolKnob("emit", "render the datapath as structural Verilog (the emit stage)", false,
			func(o *Options) bool { return o.EmitVerilog },
			func(o *Options, v bool) { o.EmitVerilog = v }),
		boolKnob("cosim", "run behavioral-vs-RTL cosimulation (the cosim stage)", false,
			func(o *Options) bool { return o.Cosim },
			func(o *Options, v bool) { o.Cosim = v }),
		intKnob("cosim-seed", "stimulus seed for the cosim stage", int(DefaultCosimSeed), 0,
			func(o *Options) int { return int(o.cosimParams().Seed) },
			func(o *Options, n int) { o.CosimSeed = uint64(n) }),
		intKnob("cosim-vectors", "stimulus vectors per cosim run", DefaultCosimVectors, 1,
			func(o *Options) int { return o.cosimParams().Vectors },
			func(o *Options, n int) { o.CosimVectors = n }),
		intKnob("cosim-cycles", "cycles simulated per stimulus vector", DefaultCosimCycles, 1,
			func(o *Options) int { return o.cosimParams().Cycles },
			func(o *Options, n int) { o.CosimCycles = n }),
	}
	sort.Slice(knobs, func(i, j int) bool { return knobs[i].Name < knobs[j].Name })
	return knobs
}

var (
	knobRegistry = buildKnobRegistry()
	knobIndex    = func() map[string]Knob {
		m := make(map[string]Knob, len(knobRegistry))
		for _, k := range knobRegistry {
			m[k.Name] = k
		}
		return m
	}()
)
