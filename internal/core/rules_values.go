package core

import (
	"repro/internal/bind"
	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// Phase 4 — value (holding-register) allocation. Every intermediate value
// consumed in a later control step than its producer needs a register.
// Within a body the rules pack lifetimes left-edge style by preferring to
// reuse a register whose previous occupant is dead; the global-improvement
// phase later merges registers across mutually exclusive bodies.
//
// Values are seeded in descending lifetime-start order so the engine's
// recency preference processes them ascending — the left-edge sweep.

func (s *synth) seedValues(wm *prod.WM) {
	vals := bind.CrossingValues(s.d)
	// Sort descending by (body, lo) so recency yields ascending order.
	for i := len(vals) - 1; i >= 0; i-- {
		v := vals[i]
		lo, hi := bind.Lifetime(s.d, v)
		wm.Make("value", prod.Attrs{
			"val":   v,
			"body":  v.Def.Body,
			"lo":    lo,
			"hi":    hi,
			"width": v.Width,
		})
	}
}

var valueRules = []*prod.Rule{
	{
		Name: "share-holding-register",
		Doc:  "Park a value in an existing register of its body whose previous occupant died before this value is born.",
		Patterns: []prod.Pattern{
			prod.P("value").Absent("bound").Bind("body", "b").Bind("lo", "lo"),
			prod.P("track").Bind("body", "b").Bind("hi", "th"),
		},
		Where: func(_ prod.Host, m *prod.Match) bool { return m.Int("th") <= m.Int("lo") },
		Action: func(tx *prod.Tx, m *prod.Match) {
			valEl, trEl := m.El(0), m.El(1)
			v := valEl.Get("val").(*vt.Value)
			r := trEl.Get("reg").(*rtl.Register)
			if _, err := tx.Do("share-value-reg", v, r); err != nil {
				return
			}
			tx.Modify(trEl, prod.Attrs{"hi": valEl.Int("hi")})
			tx.Modify(valEl, prod.Attrs{"bound": true})
		},
	},
	{
		Name:     "allocate-holding-register",
		Doc:      "No register of this body is free over the value's lifetime: allocate a new holding register.",
		Patterns: []prod.Pattern{prod.P("value").Absent("bound")},
		Action: func(tx *prod.Tx, m *prod.Match) {
			valEl := m.El(0)
			v := valEl.Get("val").(*vt.Value)
			res, err := tx.Do("alloc-value-reg", v)
			if err != nil {
				return
			}
			tx.Make("track", prod.Attrs{
				"reg":  res.(*rtl.Register),
				"body": valEl.Get("body"),
				"hi":   valEl.Int("hi"),
			})
			tx.Modify(valEl, prod.Attrs{"bound": true})
		},
	},
}
