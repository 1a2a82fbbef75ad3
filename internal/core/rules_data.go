package core

import (
	"repro/internal/prod"
	"repro/internal/vt"
)

// Phase 1 — global data/memory allocation. One working-memory element per
// carrier the trace touches; one rule per carrier kind, exactly the
// structure of the prototype's data/memory allocation rules.

func (s *synth) seedDataMemory(wm *prod.WM) {
	used := map[*vt.Carrier]bool{}
	for _, op := range s.tr.AllOps() {
		if op.Carrier != nil {
			used[op.Carrier] = true
		}
	}
	for _, car := range s.tr.Carriers {
		if !used[car] {
			continue
		}
		wm.Make("carrier", prod.Attrs{"car": car, "kind": car.Kind.String()})
	}
}

var dataMemoryRules = []*prod.Rule{
	{
		Name:     "allocate-register-for-carrier",
		Doc:      "Every register carrier of the description gets a hardware register of the same width.",
		Patterns: []prod.Pattern{prod.P("carrier").Eq("kind", "reg").Absent("bound")},
		Action: func(tx *prod.Tx, m *prod.Match) {
			car := m.El(0).Get("car").(*vt.Carrier)
			if _, err := tx.Do("bind-carrier-reg", car); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"bound": true})
		},
	},
	{
		Name:     "allocate-memory-for-carrier",
		Doc:      "Memory carriers become single-port RAM arrays of the declared geometry.",
		Patterns: []prod.Pattern{prod.P("carrier").Eq("kind", "mem").Absent("bound")},
		Action: func(tx *prod.Tx, m *prod.Match) {
			car := m.El(0).Get("car").(*vt.Carrier)
			if _, err := tx.Do("bind-carrier-mem", car); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"bound": true})
		},
	},
	{
		Name:     "allocate-input-port",
		Doc:      "Input carriers become external input pins.",
		Patterns: []prod.Pattern{prod.P("carrier").Eq("kind", "port-in").Absent("bound")},
		Action: func(tx *prod.Tx, m *prod.Match) {
			car := m.El(0).Get("car").(*vt.Carrier)
			if _, err := tx.Do("bind-carrier-port", car, true); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"bound": true})
		},
	},
	{
		Name:     "allocate-output-port",
		Doc:      "Output carriers become external output pins.",
		Patterns: []prod.Pattern{prod.P("carrier").Eq("kind", "port-out").Absent("bound")},
		Action: func(tx *prod.Tx, m *prod.Match) {
			car := m.El(0).Get("car").(*vt.Carrier)
			if _, err := tx.Do("bind-carrier-port", car, false); err != nil {
				return
			}
			tx.Modify(m.El(0), prod.Attrs{"bound": true})
		},
	},
}
