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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
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

// retryBackoff is the pause before the single retry of a request whose
// connection failed before any response arrived; up to half of it again
// is added as jitter, so clients that failed together do not retry in
// lockstep. Tests shorten it.
var retryBackoff = 200 * time.Millisecond

// maxRetryAfter caps the Retry-After delay, in seconds, that a shed
// request waits out; a 429 asking for longer is the answer.
const maxRetryAfter = 2

// call performs one daemon call — a POST of req as JSON, or a GET when req
// is nil — and decodes the 200 body into out. Error bodies map back onto
// the local error taxonomy (serve.ErrorResponse.Err): diagnostics exit 2,
// everything else exits 3.
func call(base, path string, req, out any) error {
	method, payload := http.MethodGet, []byte(nil)
	if req != nil {
		var err error
		if payload, err = json.Marshal(req); err != nil {
			return err
		}
		method = http.MethodPost
	}
	resp, err := send(method, strings.TrimRight(base, "/")+path, payload)
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

// send issues the request, retries it once after retryBackoff when the
// connection failed before any response arrived, and waits out one 429
// whose Retry-After is at most maxRetryAfter. Every other response, served
// errors included, is the answer. Every daemon call is safe to repeat:
// synthesize, explore and lint are cache-keyed pure computations and
// explain is a GET.
func send(method, target string, body []byte) (*http.Response, error) {
	retried, waited := false, false
	for {
		req, err := http.NewRequest(method, target, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		var pause time.Duration
		switch {
		case err != nil && !retried && cluster.TransientConnErr(err):
			retried = true
			pause = retryBackoff + rand.N(retryBackoff/2+1)
		case err == nil && !waited && resp.StatusCode == http.StatusTooManyRequests:
			secs, perr := strconv.Atoi(resp.Header.Get("Retry-After"))
			if perr != nil || secs < 0 || secs > maxRetryAfter {
				return resp, nil
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			waited = true
			pause = time.Duration(secs) * time.Second
		default:
			return resp, err
		}
		time.Sleep(pause)
	}
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
