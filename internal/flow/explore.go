package flow

// Design-space exploration: expand a grid over the knob space, compile
// every point on the bounded worker pool, and reduce to a Pareto front
// over (gate cost, datapath components, control steps). The paper's
// evaluation is one hand-tuned design point; Explore turns the same
// pipeline into a search over the option space.
//
// Determinism: axes sort by knob name, values canonicalize through the
// knob accessors and dedupe, the cartesian expansion is in lexicographic
// axis order, and the returned points sort by their canonical knob key —
// so a grid always produces the same front, byte for byte, regardless of
// worker interleaving. A point whose compilation fails (infeasible limits,
// an allocator error) is reported in the front as a failed point, never an
// error for the whole sweep: only context cancellation aborts Explore.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// MaxGridPoints bounds a single exploration: grids beyond this are
// refused outright (servers typically enforce a lower cap and surface it
// as 413).
const MaxGridPoints = 4096

// Axis is one swept knob with its candidate values in canonical wire form.
type Axis struct {
	Name   string
	Values []string
}

// Grid is a set of axes, sorted by knob name, defining the cartesian
// product of candidate option sets.
type Grid []Axis

// Points reports the number of assignments the grid expands to.
func (g Grid) Points() int {
	n := 1
	for _, ax := range g.Values() {
		n *= len(ax.Values)
	}
	return n
}

// Values returns the axes (alias for readability at call sites).
func (g Grid) Values() []Axis { return g }

// ParseGrid validates a wire-form grid — knob name to candidate values,
// where each value may be an explicit wire value or an integer range
// "lo..hi" / "lo..hi:step" — and returns the canonical Grid. Values
// canonicalize through the knob accessors (so "01" and "1" are one
// candidate) and dedupe; an empty axis or an empty grid is an error.
func ParseGrid(axes map[string][]string) (Grid, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("empty grid: name at least one knob axis")
	}
	names := make([]string, 0, len(axes))
	for name := range axes {
		names = append(names, name)
	}
	sort.Strings(names)
	g := make(Grid, 0, len(names))
	for _, name := range names {
		knob, ok := KnobByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown knob %q (valid: %s)", name, strings.Join(KnobNames(), ", "))
		}
		var vals []string
		seen := map[string]bool{}
		for _, raw := range axes[name] {
			expanded, err := expandValue(knob, raw)
			if err != nil {
				return nil, fmt.Errorf("knob %s: %v", name, err)
			}
			for _, v := range expanded {
				canon, err := canonicalValue(knob, v)
				if err != nil {
					return nil, fmt.Errorf("knob %s: %v", name, err)
				}
				if !seen[canon] {
					seen[canon] = true
					vals = append(vals, canon)
				}
			}
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("knob %s: empty axis", name)
		}
		g = append(g, Axis{Name: name, Values: vals})
	}
	return g, nil
}

// ParseGridSpec parses the CLI grid syntax: whitespace-separated
// knob=v1,v2,... terms, with integer ranges "1..4" and "1..8:2" as values.
func ParseGridSpec(spec string) (Grid, error) {
	axes := map[string][]string{}
	for _, term := range strings.Fields(spec) {
		name, list, ok := strings.Cut(term, "=")
		if !ok {
			return nil, fmt.Errorf("grid term %q: want knob=v1,v2,...", term)
		}
		if _, dup := axes[name]; dup {
			return nil, fmt.Errorf("knob %s listed twice", name)
		}
		vals := strings.Split(list, ",")
		for _, v := range vals {
			if v == "" {
				return nil, fmt.Errorf("knob %s: empty value in %q", name, term)
			}
		}
		axes[name] = vals
	}
	return ParseGrid(axes)
}

// expandValue expands integer range syntax on int knobs; every other value
// passes through unchanged.
func expandValue(k Knob, v string) ([]string, error) {
	if k.Kind != KnobInt || !strings.Contains(v, "..") {
		return []string{v}, nil
	}
	span, stepStr, hasStep := strings.Cut(v, ":")
	loStr, hiStr, _ := strings.Cut(span, "..")
	lo, err1 := strconv.Atoi(loStr)
	hi, err2 := strconv.Atoi(hiStr)
	step := 1
	var err3 error
	if hasStep {
		step, err3 = strconv.Atoi(stepStr)
	}
	if err1 != nil || err2 != nil || err3 != nil || step <= 0 || hi < lo {
		return nil, fmt.Errorf("bad range %q: want lo..hi or lo..hi:step with step > 0, lo <= hi", v)
	}
	if (hi-lo)/step+1 > MaxGridPoints {
		return nil, fmt.Errorf("range %q expands to more than %d values", v, MaxGridPoints)
	}
	var out []string
	for n := lo; n <= hi; n += step {
		out = append(out, strconv.Itoa(n))
	}
	return out, nil
}

// canonicalValue validates a wire value against the knob and returns its
// canonical spelling (the knob's own re-encoding of it).
func canonicalValue(k Knob, v string) (string, error) {
	var scratch Options
	if err := k.set(&scratch, v); err != nil {
		return "", err
	}
	return k.get(&scratch), nil
}

// expand produces every assignment of the grid in lexicographic axis
// order: the last axis varies fastest.
func (g Grid) expand() []map[string]string {
	assignments := []map[string]string{{}}
	for _, ax := range g {
		next := make([]map[string]string, 0, len(assignments)*len(ax.Values))
		for _, base := range assignments {
			for _, v := range ax.Values {
				a := make(map[string]string, len(base)+1)
				//daalint:allow detmap map-to-map copy is order-insensitive; the front sorts points by KnobKey
				for name, val := range base {
					a[name] = val
				}
				a[ax.Name] = v
				next = append(next, a)
			}
		}
		assignments = next
	}
	return assignments
}

// KnobKey canonically encodes a swept assignment: name=value pairs in
// sorted name order joined by semicolons. It identifies a point within its
// grid and orders the front.
func KnobKey(assignment map[string]string) string {
	names := make([]string, 0, len(assignment))
	for name := range assignment {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = name + "=" + assignment[name]
	}
	return strings.Join(parts, ";")
}

// PointMetrics are the three exploration objectives, all minimized.
type PointMetrics struct {
	// Cost is the datapath gate-equivalent figure (the paper's
	// chip-quality number, excluding external memory).
	Cost float64
	// Area counts datapath components: registers, units, muxes, links,
	// and constants.
	Area int
	// Steps counts control states.
	Steps int
}

// dominates reports Pareto dominance: at least as good on every objective
// and strictly better on one.
func (m PointMetrics) dominates(o PointMetrics) bool {
	if m.Cost > o.Cost || m.Area > o.Area || m.Steps > o.Steps {
		return false
	}
	return m.Cost < o.Cost || m.Area < o.Area || m.Steps < o.Steps
}

// PointProvenance is the per-point journal summary attached when the
// explored options enable journaling.
type PointProvenance struct {
	Components int
	Firings    int
	Effects    int
}

// Point is one evaluated assignment of the grid.
type Point struct {
	// Knobs is the swept assignment in canonical wire form; KnobKey is its
	// canonical encoding and the front's sort key.
	Knobs   map[string]string
	KnobKey string
	// OptionsKey is the full Options.Key of the point (base options with
	// the assignment applied) — the design-cache identity of this point.
	OptionsKey string
	// Metrics holds the objectives; meaningful only when Failed is false.
	Metrics PointMetrics
	// Frontier marks Pareto-optimal points. Dominated points are retained
	// with Frontier false, so a sweep shows the whole landscape.
	Frontier bool
	// Failed marks points whose compilation failed; Err carries the
	// message and Diags any positioned diagnostics.
	Failed bool
	Err    string
	Diags  DiagnosticList
	// Provenance summarizes the point's journal when journaling was on.
	Provenance *PointProvenance
}

// Front is the result of one exploration: every point of the grid,
// evaluated and flagged, sorted by canonical knob key.
type Front struct {
	Input   Input
	BaseKey string // Options.Key of the base option set the grid perturbs
	Grid    Grid
	Points  []Point
	// Evaluated counts successful points, Failed the rest; Frontier counts
	// Pareto-optimal points among the successes.
	Evaluated int
	Failed    int
	Frontier  int
}

// Explore evaluates the grid around the base options: each assignment is
// applied to a copy of base, compiled on the RunAll pool (sharing the
// front-end artifact cache across all points), and reduced to a Pareto
// front over (cost, area, steps). Points whose option sets share an
// Options.Key compile one design (a baseline ignores the DAA-only knobs,
// for example), so each distinct key compiles once and its points share
// the outcome. Per-point failures are reported in the front; only context
// cancellation (or an over-large grid) fails the call.
func Explore(ctx context.Context, in Input, base Options, grid Grid) (*Front, error) {
	if len(grid) == 0 {
		return nil, Usagef("empty grid: name at least one knob axis")
	}
	if n := grid.Points(); n > MaxGridPoints {
		return nil, Usagef("grid expands to %d points, limit %d", n, MaxGridPoints)
	}
	assignments := grid.expand()
	points := make([]Point, len(assignments))
	var distinct []Options    // one option set per distinct key, first point first
	byKey := map[string]int{} // option key -> index into distinct
	for i, a := range assignments {
		p := Point{Knobs: a, KnobKey: KnobKey(a)}
		opt := base
		if err := opt.ApplyKnobs(a); err != nil {
			// ParseGrid validated every value, so this only fires for
			// hand-built grids; still a per-point failure, not a sweep error.
			p.Failed, p.Err = true, err.Error()
		} else {
			p.OptionsKey = opt.Key()
			if _, ok := byKey[p.OptionsKey]; !ok {
				byKey[p.OptionsKey] = len(distinct)
				distinct = append(distinct, opt)
			}
		}
		points[i] = p
	}
	outcomes := make([]Point, len(distinct)) // the compiled fields only
	err := RunAll(ctx, len(distinct), func(ctx context.Context, i int) error {
		out := &outcomes[i]
		res, err := Compile(ctx, in, distinct[i])
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			out.Failed, out.Err = true, err.Error()
			errors.As(err, &out.Diags)
			return nil
		}
		counts := res.Design.Counts()
		out.Metrics = PointMetrics{
			Cost:  res.Cost.Datapath,
			Area:  counts.Registers + counts.Units + counts.Muxes + counts.Links + counts.Consts,
			Steps: counts.States,
		}
		if prov := res.Provenance(); prov != nil {
			firings, effects := res.Journal().Counts()
			out.Provenance = &PointProvenance{
				Components: len(prov.Components),
				Firings:    firings,
				Effects:    effects,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range points {
		p := &points[i]
		if p.OptionsKey == "" {
			continue // the assignment did not apply
		}
		out := outcomes[byKey[p.OptionsKey]]
		p.Metrics, p.Failed, p.Err, p.Diags, p.Provenance = out.Metrics, out.Failed, out.Err, out.Diags, out.Provenance
	}

	sort.Slice(points, func(i, j int) bool { return points[i].KnobKey < points[j].KnobKey })
	front := &Front{Input: in, BaseKey: base.Key(), Grid: grid, Points: points}
	for i := range points {
		if points[i].Failed {
			front.Failed++
			continue
		}
		front.Evaluated++
		points[i].Frontier = true
		for j := range points {
			if i != j && !points[j].Failed && points[j].Metrics.dominates(points[i].Metrics) {
				points[i].Frontier = false
				break
			}
		}
		if points[i].Frontier {
			front.Frontier++
		}
	}
	return front, nil
}
