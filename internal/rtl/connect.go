package rtl

import (
	"fmt"

	"repro/internal/vt"
)

// ValueSources returns the hardware endpoints supplying v to a consumer in
// state s. Wiring operators are transparent: a slice reads through to its
// argument's sources and a concatenation contributes the sources of both
// halves.
func (d *Design) ValueSources(v *vt.Value, s *State) ([]Endpoint, error) {
	def := v.Def
	if def == nil {
		return nil, fmt.Errorf("value %s has no producer", v)
	}
	// A value consumed in a later step than its producer lives in its
	// holding register (constants and plain register reads persist on
	// their own).
	if s != nil && d.OpState[def] != s && !v.IsConst && def.Kind != vt.OpRead {
		r := d.ValueReg[v]
		if r == nil {
			return nil, fmt.Errorf("value %s crosses steps without a register", v)
		}
		return []Endpoint{{Kind: EPRegOut, Comp: r}}, nil
	}
	switch def.Kind {
	case vt.OpConst:
		for _, c := range d.Consts {
			if c.Value == v.ConstVal && c.Width >= v.Width {
				return []Endpoint{{Kind: EPConst, Comp: c}}, nil
			}
		}
		return nil, fmt.Errorf("constant %s not allocated", v)
	case vt.OpRead:
		car := def.Carrier
		if car.Kind == vt.CarPortIn {
			p := d.CarrierPort[car]
			if p == nil {
				return nil, fmt.Errorf("port carrier %s unbound", car.Name)
			}
			return []Endpoint{{Kind: EPPortIn, Comp: p}}, nil
		}
		r := d.CarrierReg[car]
		if r == nil {
			return nil, fmt.Errorf("carrier %s unbound", car.Name)
		}
		return []Endpoint{{Kind: EPRegOut, Comp: r}}, nil
	case vt.OpMemRead:
		m := d.CarrierMem[def.Carrier]
		if m == nil {
			return nil, fmt.Errorf("memory carrier %s unbound", def.Carrier.Name)
		}
		return []Endpoint{{Kind: EPMemDataOut, Comp: m}}, nil
	case vt.OpSlice:
		return d.ValueSources(def.Args[0], s)
	case vt.OpConcat:
		j := d.OpJunction[def]
		if j == nil {
			return nil, fmt.Errorf("concat %s has no wiring junction", def)
		}
		return []Endpoint{{Kind: EPJunctionOut, Comp: j}}, nil
	default:
		if def.Kind.IsCompute() {
			u := d.OpUnit[def]
			if u == nil {
				return nil, fmt.Errorf("producer of %s unbound", v)
			}
			return []Endpoint{{Kind: EPUnitOut, Comp: u}}, nil
		}
		return nil, fmt.Errorf("value %s produced by non-data operator %s", v, def.Kind)
	}
}

// maxRouteLinks bounds the length of a route: a source reaches its sink
// through at most four multiplexers or junctions.
const maxRouteLinks = 5

// FindRoute returns the links of the first route from src to dst, found by a
// depth-first walk over Links in link order. The walk passes through
// multiplexers, and through junctions when viaJunctions is set, and gives
// up on routes longer than maxRouteLinks. It returns nil when src does not
// reach dst. FindRoute is the one walk over the interconnect: Feeds, the
// binder's check for a reusable route, and Validate's control derivation
// all use it.
//
// FindRoute is small enough to inline, so the returned slice stays on the
// caller's stack unless the caller keeps it.
func (d *Design) FindRoute(src, dst Endpoint, viaJunctions bool) []*Link {
	return d.route(make([]*Link, 0, maxRouteLinks), src, dst, viaJunctions)
}

// route extends path, which ends at src, to dst.
func (d *Design) route(path []*Link, src, dst Endpoint, viaJunctions bool) []*Link {
	if len(path) == maxRouteLinks {
		return nil
	}
	for _, l := range d.Links {
		if l.From != src {
			continue
		}
		if l.To == dst {
			return append(path, l)
		}
		var next Endpoint
		switch {
		case l.To.Kind == EPMuxIn:
			next = Endpoint{Kind: EPMuxOut, Comp: l.To.Comp}
		case l.To.Kind == EPJunctionIn && viaJunctions:
			next = Endpoint{Kind: EPJunctionOut, Comp: l.To.Comp}
		default:
			continue
		}
		if r := d.route(append(path, l), next, dst, viaJunctions); r != nil {
			return r
		}
	}
	return nil
}

// Feeds reports whether src reaches dst directly or through multiplexers
// and junctions.
func (d *Design) Feeds(src, dst Endpoint) bool {
	return d.FindRoute(src, dst, true) != nil
}
