package flow_test

import (
	"strings"
	"testing"

	"repro/internal/flow"
)

// goldenDefaultKey pins the canonical key of the zero Options exactly as
// it was before the knob-space refactor: daemon design caches and the
// cluster's shard routing both key on this string, so any drift silently
// splits (or worse, poisons) caches across releases.
const goldenDefaultKey = "alloc=daa;trace-rules=true;cleanup=true;exhaustive=false;lite=false;crosscheck=false;journal=false;core-limits=memports=1,maxops=0,units=default;alloc-limits=memports=1,maxops=0,units=default;model=default;emit=false;cosim=false"

func TestDefaultOptionsKeyGolden(t *testing.T) {
	if got := (flow.Options{}).Key(); got != goldenDefaultKey {
		t.Fatalf("default Options.Key drifted:\n got %q\nwant %q", got, goldenDefaultKey)
	}
	// The explicit spelling of the defaults keys identically.
	explicit := flow.Options{Allocator: flow.AllocDAA}
	if got := explicit.Key(); got != goldenDefaultKey {
		t.Fatalf("explicit-default Options.Key drifted:\n got %q\nwant %q", got, goldenDefaultKey)
	}
}

func TestKnobSpaceSortedAndConsistent(t *testing.T) {
	knobs := flow.KnobSpace()
	if len(knobs) == 0 {
		t.Fatal("empty knob space")
	}
	var o flow.Options
	for i, k := range knobs {
		if i > 0 && knobs[i-1].Name >= k.Name {
			t.Errorf("knob space unsorted at %q", k.Name)
		}
		if got := k.Get(o); got != k.Default {
			t.Errorf("knob %s: zero Options reads %q, Default says %q", k.Name, got, k.Default)
		}
		if k.Kind == flow.KnobEnum && (len(k.Domain) == 0 || k.Domain[0] != k.Default) {
			t.Errorf("knob %s: enum domain %v does not lead with default %q", k.Name, k.Domain, k.Default)
		}
		if k.Doc == "" {
			t.Errorf("knob %s: undocumented", k.Name)
		}
	}
}

func TestKnobsRoundTripDefaults(t *testing.T) {
	var o flow.Options
	m := o.Knobs()
	if len(m) != len(flow.KnobSpace()) {
		t.Fatalf("Knobs() returned %d values for %d knobs", len(m), len(flow.KnobSpace()))
	}
	var rebuilt flow.Options
	if err := rebuilt.ApplyKnobs(m); err != nil {
		t.Fatal(err)
	}
	if rebuilt.Key() != o.Key() {
		t.Fatalf("defaults do not round-trip:\n got %q\nwant %q", rebuilt.Key(), o.Key())
	}
	if rebuilt.Key() != goldenDefaultKey {
		t.Fatalf("knob-built defaults drifted from the golden key: %q", rebuilt.Key())
	}
}

// knobSamples holds one non-default value for every knob.
var knobSamples = map[string]string{
	"allocator":     "leftedge",
	"scheduler":     "asap",
	"trace-rules":   "false",
	"cleanup":       "false",
	"crosscheck":    "true",
	"journal":       "true",
	"maxops":        "3",
	"units":         "add:2",
	"fold-slack":    "7.5",
	"cost.reg":      "9",
	"cost.mem":      "2.5",
	"cost.muxway":   "2",
	"cost.link":     "0.4",
	"cost.const":    "0.2",
	"cost.port":     "3",
	"cost.state":    "15",
	"cost.fnsel":    "3",
	"cost.fn":       "add:16",
	"emit":          "true",
	"cosim":         "true",
	"cosim-seed":    "7",
	"cosim-vectors": "8",
	"cosim-cycles":  "9",
}

// Every knob set to a non-default value must move the key — otherwise a
// sweep would alias distinct option sets in the design cache. The cosim
// stimulus knobs are the deliberate exception while cosim is off.
func TestEachKnobMovesKey(t *testing.T) {
	cosimStim := map[string]bool{"cosim-seed": true, "cosim-vectors": true, "cosim-cycles": true}
	for _, k := range flow.KnobSpace() {
		v, ok := knobSamples[k.Name]
		if !ok {
			t.Errorf("knob %s: no non-default sample value in this test — add one", k.Name)
			continue
		}
		if v == k.Default {
			t.Errorf("knob %s: sample %q equals the default", k.Name, v)
			continue
		}
		var o flow.Options
		if err := o.ApplyKnobs(map[string]string{k.Name: v}); err != nil {
			t.Errorf("knob %s: %v", k.Name, err)
			continue
		}
		moved := o.Key() != goldenDefaultKey
		if cosimStim[k.Name] {
			if moved {
				t.Errorf("knob %s: moved the key with cosim off (stimulus must not split caches)", k.Name)
			}
			continue
		}
		if !moved {
			t.Errorf("knob %s=%s: key did not move", k.Name, v)
		}
		// And the new key round-trips through the knob encoding.
		var rebuilt flow.Options
		if err := rebuilt.ApplyKnobs(o.Knobs()); err != nil {
			t.Errorf("knob %s: re-apply: %v", k.Name, err)
			continue
		}
		if rebuilt.Key() != o.Key() {
			t.Errorf("knob %s: round-trip key mismatch:\n got %q\nwant %q", k.Name, rebuilt.Key(), o.Key())
		}
	}
}

func TestApplyKnobsRejectsBadInput(t *testing.T) {
	var o flow.Options
	// "lite" and "exhaustive" named matcher modes that no longer exist, and
	// "memports" a memory-port limit that could only be 1; the key keeps
	// their fragments, but the knobs are gone.
	for _, name := range []string{"warp-speed", "lite", "exhaustive", "memports"} {
		if err := o.ApplyKnobs(map[string]string{name: "9"}); err == nil || !strings.Contains(err.Error(), "unknown knob") {
			t.Errorf("unknown knob %s accepted: %v", name, err)
		}
	}
	cases := map[string]string{
		"allocator":  "quantum",
		"scheduler":  "greedy",
		"maxops":     "-1",
		"fold-slack": "-2",
		"units":      "add:x",
		"cost.fn":    "warp:1",
		"cleanup":    "yes",
		"cost.reg":   "cheap",
	}
	for name, v := range cases {
		var o flow.Options
		if err := o.ApplyKnobs(map[string]string{name: v}); err == nil {
			t.Errorf("knob %s accepted bad value %q", name, v)
		}
	}
}

func TestKnobModelNormalization(t *testing.T) {
	// Setting a cost weight to its default must not materialize a model
	// override (which would split the key from "model=default").
	var o flow.Options
	if err := o.ApplyKnobs(map[string]string{"cost.reg": "8", "cost.fn": "default"}); err != nil {
		t.Fatal(err)
	}
	if o.Model != nil {
		t.Fatalf("default-valued cost knobs materialized a model override")
	}
	if o.Key() != goldenDefaultKey {
		t.Fatalf("key drifted: %q", o.Key())
	}
	// And a real override normalizes back when reset to the default.
	if err := o.ApplyKnobs(map[string]string{"cost.reg": "11"}); err != nil {
		t.Fatal(err)
	}
	if o.Model == nil || o.Model.RegBit != 11 {
		t.Fatalf("cost.reg override not applied: %+v", o.Model)
	}
	if err := o.ApplyKnobs(map[string]string{"cost.reg": "8"}); err != nil {
		t.Fatal(err)
	}
	if o.Model != nil {
		t.Fatalf("model override not normalized away after reset")
	}
}

// FuzzKnobRoundTrip: any applicable knob assignment must round-trip —
// ApplyKnobs, read back with Knobs, re-apply onto a fresh Options, and the
// two option sets key identically — and key as the knob oracle does.
func FuzzKnobRoundTrip(f *testing.F) {
	f.Add("allocator=leftedge;scheduler=asap;maxops=2")
	f.Add("fold-slack=3.5;cost.reg=9;units=add:2+sub:1")
	f.Add("cosim=true;cosim-seed=42;journal=true")
	f.Add("cost.fn=add:16+xor:2;maxops=4;cleanup=false")
	f.Add("emit=true;crosscheck=true;cost.state=0")
	f.Fuzz(func(t *testing.T, spec string) {
		assignment := map[string]string{}
		for _, term := range strings.Split(spec, ";") {
			name, v, ok := strings.Cut(term, "=")
			if ok {
				assignment[name] = v
			}
		}
		var a flow.Options
		if err := a.ApplyKnobs(assignment); err != nil {
			return // invalid assignments are fine; partial application is allowed
		}
		var b flow.Options
		if err := b.ApplyKnobs(a.Knobs()); err != nil {
			t.Fatalf("canonical knob map rejected: %v", err)
		}
		if a.Key() != b.Key() {
			t.Fatalf("round-trip key mismatch for %q:\n got %q\nwant %q", spec, b.Key(), a.Key())
		}
		if want := oracleKey(a); a.Key() != want {
			t.Fatalf("Key departs from the knob oracle for %q:\n got %q\nwant %q", spec, a.Key(), want)
		}
	})
}
