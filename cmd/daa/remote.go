package main

// Remote mode: -remote <url> sends the compilation to a daad daemon
// (cmd/daad) instead of synthesizing in-process. The daemon embeds the
// same deterministic report block local runs print (serve.RenderReport),
// so output is identical apart from the local-only value-trace header and
// synthesis statistics; positioned diagnostics come back over the wire
// and render with the same carets and exit codes. -explain rides along:
// the synthesize request asks for provenance and the listing is fetched
// from GET /v1/explain under the key the response returns.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/serve"
)

// requestOptions builds the wire options of a remote run from the flags.
func (o options) requestOptions() serve.RequestOptions {
	return serve.RequestOptions{
		Allocator:  o.allocator,
		NoCleanup:  o.noCleanup,
		Provenance: o.explain != "",
		Verify:     o.verify,
		CosimSeed:  o.cosimSeed,
	}
}

func runRemote(w io.Writer, in flow.Input, o options) error {
	if o.trace || o.engineStats {
		return flow.Usagef("-trace and -engine-stats stream local engine state and are not supported with -remote")
	}
	if o.journal != "" {
		return flow.Usagef("-journal records the local engine's effect journal and is not supported with -remote")
	}
	req := serve.SynthesizeRequest{
		Name:    in.Name,
		Source:  in.Source,
		Options: o.requestOptions(),
		Artifacts: serve.ArtifactRequest{
			Verilog:      o.verilog || o.emitVerilog != "",
			ControlTable: o.control,
			Dot:          o.flow,
		},
		Timings:    o.stageTiming,
		DeadlineMS: int(o.deadline / time.Millisecond),
	}
	// A response without artifacts leaves them empty, not nil.
	resp := serve.SynthesizeResponse{Artifacts: &serve.Artifacts{}}
	if err := call(o.remote, "/v1/synthesize", req, &resp); err != nil {
		return err
	}
	if o.verify && resp.Equivalence == nil {
		return fmt.Errorf("remote %s: response carries no equivalence verdict (daemon too old?)", o.remote)
	}
	// The wire verdict rebuilds the flow-layer report, so the verdict block
	// below is byte-identical to a local -verify run.
	rep := resp.Equivalence.CosimReport()
	art := resp.Artifacts

	if o.emitVerilog != "" {
		if err := os.WriteFile(o.emitVerilog, []byte(art.Verilog), 0o644); err != nil {
			return err
		}
	}
	if o.explain != "" {
		if resp.Provenance == nil {
			return fmt.Errorf("remote %s: response carries no provenance key (daemon too old?)", o.remote)
		}
		var ex serve.ExplainResponse
		path := "/v1/explain?key=" + url.QueryEscape(resp.Provenance.Key) + "&sel=" + url.QueryEscape(o.explain)
		if err := call(o.remote, path, nil, &ex); err != nil {
			return err
		}
		writeExplain(w, ex.Design, o.explain, ex.Matched, ex.Text)
		return cosimVerdict(w, rep, true)
	}
	if o.verilog {
		fmt.Fprint(w, art.Verilog)
		return cosimVerdict(w, rep, true)
	}
	if o.flow {
		fmt.Fprint(w, art.Dot)
		return cosimVerdict(w, rep, true)
	}
	fmt.Fprint(w, resp.Report)
	if o.stageTiming {
		fmt.Fprintln(w)
		remoteTrace(resp.Stages).Write(w)
	}
	if o.control {
		fmt.Fprintln(w, "\ncontrol table:")
		fmt.Fprint(w, art.ControlTable)
	}
	return cosimVerdict(w, rep, false)
}

// retryBackoff is the pause before the single retry of an idempotent
// request whose connection failed before any response arrived. Tests
// shorten it.
var retryBackoff = 200 * time.Millisecond

// call performs one daemon call — a POST of req as JSON, or a GET when req
// is nil — and decodes the 200 body into out. It rides the shared cluster
// client: one retry after a short backoff when the transport failed
// before the server produced a response, and a 429 with a short
// Retry-After is waited out once. Every daemon call is safe to repeat:
// synthesize, explore and lint are cache-keyed pure computations and
// explain is a GET. Error bodies map back onto the local error taxonomy
// (serve.ErrorResponse.Err): diagnostics exit 2, everything else exits 3.
func call(base, path string, req, out any) error {
	method, payload := http.MethodGet, []byte(nil)
	if req != nil {
		var err error
		if payload, err = json.Marshal(req); err != nil {
			return err
		}
		method = http.MethodPost
	}
	c := cluster.NewClient(cluster.ClientConfig{
		Attempts:    2,
		BaseBackoff: retryBackoff,
		Honor429:    true,
	})
	resp, err := c.Send(context.Background(), method, strings.TrimRight(base, "/")+path, payload)
	if err != nil {
		return fmt.Errorf("remote %s: %w", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("remote %s: reading response: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		var er serve.ErrorResponse
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			return fmt.Errorf("remote %s: %w", base, er.Err())
		}
		return fmt.Errorf("remote %s: HTTP %d", base, resp.StatusCode)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("remote %s: malformed response: %w", base, err)
	}
	return nil
}

// remoteTrace rebuilds a flow.Trace from wire stage timings so remote
// stage-timing output renders through the same table writer.
func remoteTrace(stages []serve.StageTiming) flow.Trace {
	var tr flow.Trace
	for _, s := range stages {
		d := time.Duration(s.ElapsedMS * float64(time.Millisecond))
		tr.Stages = append(tr.Stages, flow.StageInfo{Stage: s.Name, Elapsed: d, Cached: s.Cached, Note: s.Note})
		tr.Total += d
	}
	return tr
}
