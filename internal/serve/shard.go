package serve

import (
	"fmt"
	"strings"

	"repro/internal/flow"
)

// defaultInputName labels sources submitted without a name, in
// diagnostics and in content hashes alike.
const defaultInputName = "input.isps"

// flowInput builds the pipeline input for a wire source, defaulting the
// name. Every handler and shard key goes through it so the content hash —
// which covers the name — is computed identically everywhere.
func flowInput(name, source string) flow.Input {
	if name == "" {
		name = defaultInputName
	}
	return flow.Input{Name: name, Source: source}
}

func (r SynthesizeRequest) flowInput() flow.Input { return flowInput(r.Name, r.Source) }

// lower maps a synthesize request onto the pipeline's input and options.
// Verilog is an emit-stage product: selecting the artifact selects the
// stage, so every key computed from the options covers it.
func (r SynthesizeRequest) lower() (flow.Input, flow.Options, error) {
	opt, err := r.Options.flowOptions()
	opt.EmitVerilog = r.Artifacts.Verilog
	return r.flowInput(), opt, err
}

// Shard keys give cluster routers (internal/cluster) a stable, canonical
// identity per request without re-implementing the daemon's option
// canonicalization. A request's shard key is exactly the identity its
// result is cached and journaled under on the worker —
// (source content hash, canonical option key) — so routing by shard key
// is what keeps each worker's design cache and explain store hot on its
// shard: repeats of the same (source, options) always land on the same
// worker, and a later GET /v1/explain carrying the provenance key the
// synthesize response returned hashes onto the same worker that journaled
// the design.

// ShardKey returns the canonical routing identity of a synthesize
// request. It equals the provenance key the response returns when the
// request asks for provenance, which is what lets a coordinator route
// /v1/explain by the raw key string. Invalid options are a routing error:
// the coordinator answers 400 without touching a worker.
func (r SynthesizeRequest) ShardKey() (string, error) {
	in, opt, err := r.lower()
	if err != nil {
		return "", err
	}
	return explainKey(in, opt), nil
}

// ShardKey returns the canonical routing identity of a lint request:
// content-addressed like synthesize (so repeated lints of one source
// reuse the owning worker's hot front-end cache), with a fixed identity
// for rule-base-only lints, which carry no source to hash.
func (r LintRequest) ShardKey() string {
	if strings.TrimSpace(r.Source) == "" {
		return "rulebase|lint"
	}
	return fmt.Sprintf("%x|lint", flowInput(r.Name, r.Source).ContentHash())
}
