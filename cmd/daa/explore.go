package main

// Design-space exploration: -explore sweeps a knob grid around the
// flag-selected base options and prints the Pareto front. The grid syntax
// is whitespace-separated knob=v1,v2 terms with integer ranges
// ("maxops=1..4", "maxops=0..8:2"); -knobs lists every knob with its
// domain and default. Local and -remote sweeps render through the same
// serve.RenderFront table — and with -json, the local output is
// byte-identical to the daemon's POST /v1/explore response body.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/flow"
	"repro/internal/serve"
)

// runKnobs lists the knob space: name, kind, default, domain, doc.
func runKnobs(w io.Writer) error {
	fmt.Fprintln(w, "synthesis knobs (grid axes for -explore, one point per value combination):")
	for _, k := range flow.KnobSpace() {
		domain := ""
		if len(k.Domain) > 0 {
			domain = " ∈ {" + strings.Join(k.Domain, ", ") + "}"
		}
		fmt.Fprintf(w, "\n  %s (%s, default %s)%s\n    %s\n", k.Name, k.Kind, k.Default, domain, k.Doc)
	}
	return nil
}

// runExplore sweeps the grid — in-process, or on a daad daemon (or
// cluster coordinator) with -remote — and renders the front.
func runExplore(w io.Writer, in flow.Input, o options) error {
	grid, err := flow.ParseGridSpec(o.exploreSpec)
	if err != nil {
		return flow.Usagef("%v", err)
	}
	if o.trace || o.journal != "" || o.explain != "" {
		return flow.Usagef("-trace, -journal, and -explain are per-run outputs; not supported with -explore")
	}
	// The grid perturbs the base point the design flags select; the
	// per-run output flags (-verify, -verilog, ...) do not reach a sweep.
	point := options{allocator: o.allocator, noCleanup: o.noCleanup}
	base, err := point.flowOptions()
	if err != nil {
		return err
	}
	resp := &serve.ExploreResponse{}
	if o.remote != "" {
		req := serve.ExploreRequest{
			Name:    in.Name,
			Source:  in.Source,
			Grid:    make(map[string]serve.GridAxis, len(grid)),
			Options: point.requestOptions(),
		}
		for _, ax := range grid {
			req.Grid[ax.Name] = serve.GridAxis(ax.Values)
		}
		err = call(o.remote, "/v1/explore", req, resp)
	} else {
		var front *flow.Front
		if front, err = flow.Explore(context.Background(), in, base, grid); err == nil {
			resp = serve.NewExploreResponse(front)
		}
	}
	if err != nil {
		return err
	}
	return renderExplore(w, resp, o.exploreJSON)
}

// renderExplore writes the front as the shared table or as the daemon's
// JSON body (byte-identical to POST /v1/explore).
func renderExplore(w io.Writer, resp *serve.ExploreResponse, asJSON bool) error {
	if asJSON {
		body, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(body, '\n'))
		return err
	}
	serve.RenderFront(w, resp)
	if resp.Evaluated == 0 && resp.Failed > 0 {
		return fmt.Errorf("every grid point failed; see the table above")
	}
	return nil
}
