package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/isps"
	"repro/internal/lru"
)

// Config sizes the daemon. The zero value serves with sane defaults.
type Config struct {
	// ID identifies this worker in the X-DAAD-Worker response header and in
	// cluster status reports. Empty omits the header (standalone daemons).
	ID string
	// Workers bounds concurrent syntheses (default runtime.GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the workers
	// themselves; past it the server sheds load with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the design cache (default
	// DefaultDesignCacheEntries). Negative disables the cache.
	CacheEntries int
	// FrontCacheEntries rebounds the flow front-end artifact cache for the
	// daemon's working set (0 keeps flow's default).
	FrontCacheEntries int
	// MaxBodyBytes limits request bodies (default 1 MiB).
	MaxBodyBytes int64
	// DefaultDeadline bounds syntheses whose request carries no deadline
	// (default 60s; negative means none).
	DefaultDeadline time.Duration
	// MaxDeadline clamps request-supplied deadlines (default 5m).
	MaxDeadline time.Duration
	// MaxBatch bounds sources per batch request (default 256).
	MaxBatch int
	// MaxGridPoints bounds the expanded grid of one explore request
	// (default DefaultMaxGridPoints); past it the request answers 413.
	// Negative disables /v1/explore entirely (every grid is too large).
	MaxGridPoints int
	// Logger receives one line per request, tagged with the request ID.
	// Nil discards logs (tests).
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxGridPoints == 0 {
		c.MaxGridPoints = DefaultMaxGridPoints
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c
}

// Server is the synthesis daemon: admission control, the design cache,
// the metrics counters, and the HTTP handlers over flow.Compile.
type Server struct {
	cfg     Config
	cache   *lru.Cache[string, []byte]           // design cache: rendered bodies
	explain *lru.Cache[string, *core.Provenance] // explain store
	met     metrics
	start   time.Time

	slots    chan struct{} // worker tokens; len == Workers
	waiting  atomic.Int64  // admitted requests (queued + in flight)
	inflight atomic.Int64  // requests holding a worker token
	draining atomic.Bool
	ready    atomic.Bool // readiness gate: false before warmup completes

	reqSeq atomic.Int64
	http   http.Server

	// synthesize runs one compilation; tests substitute it to simulate
	// slow or stuck synthesis without real workloads.
	synthesize func(ctx context.Context, in flow.Input, opt flow.Options) (*flow.Result, error)
}

// New builds a Server from cfg (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.FrontCacheEntries > 0 {
		flow.SetCacheCap(cfg.FrontCacheEntries)
	}
	s := &Server{
		cfg:        cfg,
		cache:      newDesignCache(cfg.CacheEntries),
		explain:    lru.New[string, *core.Provenance](DefaultExplainCacheEntries),
		start:      time.Now(),
		slots:      make(chan struct{}, cfg.Workers),
		synthesize: flow.Compile,
	}
	s.ready.Store(true)
	s.http.Handler = s.Handler()
	return s
}

// SetReady flips the readiness gate reported by GET /v1/healthz?ready=1.
// Servers boot ready; a daemon that wants to warm caches first calls
// SetReady(false) before serving and SetReady(true) once warmup completes,
// so cluster routers keep the worker out of the ring until it is hot.
// Liveness (plain /v1/healthz) and request handling are unaffected: an
// unready worker still serves whatever reaches it.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Warm runs one small embedded benchmark through the full synthesize
// path, paying the first-run costs — rule-base compilation, Rete network
// build, code page-in — before real traffic arrives. The intended boot
// sequence is SetReady(false), Warm, SetReady(true): the readiness probe
// reports "warming" in between and cluster routers keep the worker out of
// the ring until it is hot.
func (s *Server) Warm(ctx context.Context) error {
	src, err := bench.Source("gcd")
	if err != nil {
		return err
	}
	out := s.runOne(ctx, SynthesizeRequest{Name: "warmup.isps", Source: src}, false)
	if out.err != nil {
		return fmt.Errorf("warmup synthesis: %s", out.err.Error)
	}
	return nil
}

// Handler returns the daemon's full HTTP handler: the /v1 mux wrapped in
// request-ID, logging, and panic-recovery middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/lint", s.handleLint)
	mux.HandleFunc("POST /v1/explore", s.handleExplore)
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s.middleware(mux)
}

// Serve accepts connections on l until Shutdown. It is the body of
// cmd/daad's main loop and of the drain tests.
func (s *Server) Serve(l net.Listener) error {
	return s.http.Serve(l)
}

// Shutdown drains the server: new synthesize/batch work is refused with
// 503, idle connections close, and in-flight requests run to completion
// (or until ctx expires). Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.http.Shutdown(ctx)
}

// ---------------------------------------------------------------------------
// Middleware: request IDs, logging, panic recovery.

type ctxKey int

const reqIDKey ctxKey = 0

// requestID returns the request's ID ("r-000042"), threaded through the
// context by the middleware.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey).(string)
	return id
}

// statusWriter captures the response status for logging and the
// status-class counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r-%06d", s.reqSeq.Add(1))
		ctx := context.WithValue(r.Context(), reqIDKey, id)
		r = r.WithContext(ctx)
		w.Header().Set("X-DAAD-Request", id)
		if s.cfg.ID != "" {
			w.Header().Set("X-DAAD-Worker", s.cfg.ID)
		}
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.met.panics.Add(1)
				s.cfg.Logger.Printf("%s PANIC %s %s: %v\n%s", id, r.Method, r.URL.Path, p, debug.Stack())
				if sw.status == 0 {
					s.writeError(sw, r, http.StatusInternalServerError, &ErrorResponse{
						Error: fmt.Sprintf("internal error: %v", p), Kind: KindInternal, RequestID: id,
					})
				}
			}
			switch {
			case sw.status >= 500:
				s.met.err5xx.Add(1)
			case sw.status >= 400:
				s.met.err4xx.Add(1)
			default:
				s.met.ok2xx.Add(1)
			}
			s.cfg.Logger.Printf("%s %s %s -> %d (%v)", id, r.Method, r.URL.Path, sw.status, time.Since(t0).Round(time.Microsecond))
		}()
		next.ServeHTTP(sw, r)
	})
}

// ---------------------------------------------------------------------------
// Admission control.

// errOverload marks a request shed at admission.
var errOverload = errors.New("serve: admission queue full")

// admitN reserves n units of queue+worker capacity, or reports overload.
func (s *Server) admitN(n int) bool {
	if s.waiting.Add(int64(n)) > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.waiting.Add(int64(-n))
		s.met.shed.Add(1)
		return false
	}
	return true
}

// leave returns one unit of admitted capacity.
func (s *Server) leave() { s.waiting.Add(-1) }

// acquire blocks until a worker token is free or ctx is done. The caller
// must already hold admitted capacity.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		s.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the worker token from acquire.
func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.slots
}

// ---------------------------------------------------------------------------
// Handlers.

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	s.met.synthesize.Add(1)
	id := requestID(r.Context())
	if s.draining.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, &ErrorResponse{
			Error: "server is draining", Kind: KindShutdown, RequestID: id,
		})
		return
	}
	var req SynthesizeRequest
	if errResp := s.decodeBody(w, r, &req); errResp != nil {
		s.writeError(w, r, errResp.status, errResp.body)
		return
	}
	out := s.runOne(r.Context(), req, true)
	if out.err != nil {
		s.writeError(w, r, out.status, out.err)
		return
	}
	w.Header().Set("X-DAAD-Cache", out.cacheState)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out.body)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batch.Add(1)
	id := requestID(r.Context())
	if s.draining.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, &ErrorResponse{
			Error: "server is draining", Kind: KindShutdown, RequestID: id,
		})
		return
	}
	var req BatchRequest
	if errResp := s.decodeBody(w, r, &req); errResp != nil {
		s.writeError(w, r, errResp.status, errResp.body)
		return
	}
	n := len(req.Requests)
	if n == 0 {
		s.writeError(w, r, http.StatusBadRequest, &ErrorResponse{
			Error: "batch carries no requests", Kind: KindRequest, RequestID: id,
		})
		return
	}
	if n > s.cfg.MaxBatch {
		s.writeError(w, r, http.StatusBadRequest, &ErrorResponse{
			Error: fmt.Sprintf("batch of %d exceeds the %d-source limit", n, s.cfg.MaxBatch),
			Kind:  KindRequest, RequestID: id,
		})
		return
	}
	s.met.batchItems.Add(int64(n))
	// The whole batch is admitted (or shed) as a unit; each source then
	// competes for worker tokens individually, so batch fan-out is bounded
	// by the same pool as single requests.
	if !s.admitN(n) {
		s.writeError(w, r, http.StatusTooManyRequests, &ErrorResponse{
			Error: "admission queue full, retry later", Kind: KindOverload, RequestID: id,
		})
		return
	}
	items := make([]BatchItem, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range req.Requests {
		go func(i int) {
			defer wg.Done()
			defer s.leave()
			out := s.runOne(r.Context(), req.Requests[i], false)
			if out.err != nil {
				// The X-DAAD-Request header already identifies the batch;
				// per-item IDs would break byte-determinism of the body.
				out.err.RequestID = ""
				items[i] = BatchItem{Error: out.err}
				return
			}
			var resp SynthesizeResponse
			if err := json.Unmarshal(out.body, &resp); err != nil {
				items[i] = BatchItem{Error: &ErrorResponse{
					Error: err.Error(), Kind: KindInternal, RequestID: requestID(r.Context()),
				}}
				return
			}
			items[i] = BatchItem{Result: &resp}
		}(i)
	}
	wg.Wait()
	s.writeJSON(w, http.StatusOK, BatchResponse{Results: items})
}

// handleLint runs the semantic linters without synthesizing: the ISPS
// source lint behind `ispsfmt -lint` and/or the rule-base lint behind
// `daa -lint-rules`. Lint work is admitted through the same bounded worker
// pool as synthesis, so a corpus-triage client cannot starve interactive
// requests. Findings are a verdict (200, clean=false); only sources the
// front end rejects outright answer 422.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	s.met.lintReq.Add(1)
	id := requestID(r.Context())
	if s.draining.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, &ErrorResponse{
			Error: "server is draining", Kind: KindShutdown, RequestID: id,
		})
		return
	}
	var req LintRequest
	if errResp := s.decodeBody(w, r, &req); errResp != nil {
		s.writeError(w, r, errResp.status, errResp.body)
		return
	}
	if strings.TrimSpace(req.Source) == "" && !req.Rules {
		s.writeError(w, r, http.StatusBadRequest, &ErrorResponse{
			Error: "nothing to lint: supply source, rules, or both", Kind: KindRequest, RequestID: id,
		})
		return
	}
	if !s.admitN(1) {
		s.writeError(w, r, http.StatusTooManyRequests, &ErrorResponse{
			Error: "admission queue full, retry later", Kind: KindOverload, RequestID: id,
		})
		return
	}
	defer s.leave()
	if err := s.acquire(r.Context()); err != nil {
		out := s.ctxOutcome(err, id)
		s.writeError(w, r, out.status, out.err)
		return
	}
	defer s.release()

	var resp LintResponse
	if strings.TrimSpace(req.Source) != "" {
		in := flowInput(req.Name, req.Source)
		prog, err := flow.Parse(r.Context(), in)
		if err != nil {
			out := s.errorOutcome(err, id)
			s.writeError(w, r, out.status, out.err)
			return
		}
		resp.Name = in.Name
		for _, d := range flow.LintDiagnostics(in, isps.Lint(prog)) {
			resp.Findings = append(resp.Findings, Diagnostic{
				File: d.Pos.File, Line: d.Pos.Line, Col: d.Pos.Col,
				Stage: d.Stage, Msg: d.Msg, SrcLine: d.SrcLine,
			})
		}
	}
	if req.Rules {
		kb := core.KnowledgeBase()
		rb := &RuleBaseLint{Phases: len(core.PhaseOrder)}
		for _, phase := range core.PhaseOrder {
			rb.Rules += len(kb[phase])
		}
		for _, f := range core.LintKnowledgeBase() {
			rb.Findings = append(rb.Findings, RuleBaseFinding{
				Phase: f.Phase, Rule: f.Finding.Rule, Code: f.Finding.Code, Msg: f.Finding.Msg,
			})
		}
		resp.RuleBase = rb
	}
	resp.Clean = len(resp.Findings) == 0 &&
		(resp.RuleBase == nil || len(resp.RuleBase.Findings) == 0)
	s.writeJSON(w, http.StatusOK, resp)
}

// handleExplain serves the provenance of a previously journaled design.
// The key comes from the synthesize response's provenance summary; an
// unknown (or evicted) key is 404 — synthesize with options.provenance
// first.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.met.explainReq.Add(1)
	id := requestID(r.Context())
	key := r.URL.Query().Get("key")
	if key == "" {
		s.writeError(w, r, http.StatusBadRequest, &ErrorResponse{
			Error: "missing key parameter (from the synthesize response's provenance.key)",
			Kind:  KindRequest, RequestID: id,
		})
		return
	}
	prov, ok := s.explain.Get(key)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, &ErrorResponse{
			Error: "no journaled design under this key; synthesize with options.provenance first",
			Kind:  KindRequest, RequestID: id,
		})
		return
	}
	sel := r.URL.Query().Get("sel")
	var sb strings.Builder
	matched := prov.Explain(&sb, sel)
	s.writeJSON(w, http.StatusOK, ExplainResponse{
		Design:   prov.Design,
		Selector: sel,
		Matched:  matched,
		Text:     sb.String(),
	})
}

// handleHealthz answers both health probes. The plain form is liveness:
// it is 200 for as long as the process serves, draining included, so
// process supervisors do not kill a daemon that is finishing in-flight
// work. With ?ready=1 it is readiness: 503 while draining or before
// warmup, which is what tells a cluster router to take the worker out of
// the ring before the listener disappears.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.healthz.Add(1)
	status := "ok"
	ready := true
	switch {
	case s.draining.Load():
		status, ready = "draining", false
	case !s.ready.Load():
		status, ready = "warming", false
	}
	code := http.StatusOK
	if r.URL.Query().Get("ready") != "" && !ready {
		code = http.StatusServiceUnavailable
	}
	waiting, inflight := s.waiting.Load(), s.inflight.Load()
	s.writeJSON(w, code, HealthResponse{
		Status:     status,
		Ready:      ready,
		Worker:     s.cfg.ID,
		InFlight:   inflight,
		QueueDepth: max64(waiting-inflight, 0),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.metricsReq.Add(1)
	s.writeJSON(w, http.StatusOK, s.Metrics())
}

// ---------------------------------------------------------------------------
// The synthesize core shared by /v1/synthesize and /v1/batch items.

// outcome is one source's fate: a rendered success body or an error.
type outcome struct {
	status     int
	body       []byte
	err        *ErrorResponse
	cacheState string // "hit", "miss", or "bypass"
}

// runOne validates, admits (when admit is true; batch items are
// pre-admitted), caches, and synthesizes one source. The request context
// carries the client connection: its cancellation propagates through
// flow.Compile into the production engine's between-cycle Interrupt hook.
func (s *Server) runOne(ctx context.Context, req SynthesizeRequest, admit bool) outcome {
	id := requestID(ctx)
	if strings.TrimSpace(req.Source) == "" {
		return outcome{status: http.StatusBadRequest, err: &ErrorResponse{
			Error: "empty source", Kind: KindRequest, RequestID: id,
		}}
	}
	in := req.flowInput()
	opt, err := req.Options.flowOptions()
	if err != nil {
		return outcome{status: http.StatusBadRequest, err: &ErrorResponse{
			Error: err.Error(), Kind: KindRequest, RequestID: id,
		}}
	}
	// Verilog is an emit-stage product now: selecting the artifact selects
	// the stage, before the cache key is computed (opt.Key covers it).
	opt.EmitVerilog = req.Artifacts.Verilog

	// Cache lookup happens before admission: a repeat submission is served
	// in O(lookup) without consuming queue capacity or a worker token.
	useCache := !req.NoCache && s.cache.Cap() > 0 && opt.Cacheable()
	key := ""
	if useCache {
		key = designKey(in, opt, req.Artifacts, req.Timings)
		if body, ok := s.cache.Get(key); ok {
			return outcome{status: http.StatusOK, body: body, cacheState: "hit"}
		}
	}

	if admit {
		if !s.admitN(1) {
			return outcome{status: http.StatusTooManyRequests, err: &ErrorResponse{
				Error: "admission queue full, retry later", Kind: KindOverload, RequestID: id,
			}}
		}
		defer s.leave()
	}
	if err := s.acquire(ctx); err != nil {
		return s.ctxOutcome(err, id)
	}
	defer s.release()

	ctx, cancel := s.withDeadline(ctx, req.DeadlineMS)
	defer cancel()

	res, err := s.synthesize(ctx, in, opt)
	if err != nil {
		return s.errorOutcome(err, id)
	}
	s.met.observeResult(res)

	resp := SynthesizeResponse{
		Name:      res.Input.Name,
		Allocator: allocatorName(opt),
		Counts:    res.Design.Counts(),
		Cost:      res.Cost,
		Report:    RenderReport(res),
	}
	if req.Artifacts.Verilog || req.Artifacts.ControlTable || req.Artifacts.Dot {
		art := &Artifacts{}
		if req.Artifacts.Verilog {
			art.Verilog = res.Verilog // rendered by the pipeline's emit stage
		}
		if req.Artifacts.ControlTable {
			var sb strings.Builder
			if err := res.Design.WriteControlTable(&sb); err != nil {
				return outcome{status: http.StatusInternalServerError, err: &ErrorResponse{
					Error: err.Error(), Kind: KindInternal, RequestID: id,
				}}
			}
			art.ControlTable = sb.String()
		}
		if req.Artifacts.Dot {
			var sb strings.Builder
			if err := res.Design.WriteControlFlowDot(&sb); err != nil {
				return outcome{status: http.StatusInternalServerError, err: &ErrorResponse{
					Error: err.Error(), Kind: KindInternal, RequestID: id,
				}}
			}
			art.Dot = sb.String()
		}
		resp.Artifacts = art
	}
	resp.Equivalence = newEquivalence(res.Cosim)
	if req.Timings {
		if res.Synth != nil {
			resp.Stats = newSynthStats(res.Synth.Stats)
		}
		resp.Stages = newStageTimings(res.Trace)
	}
	if prov := res.Provenance(); prov != nil {
		ekey := explainKey(in, opt)
		s.explain.Put(ekey, prov)
		firings, effects := res.Journal().Counts()
		resp.Provenance = &ProvenanceSummary{
			Key:        ekey,
			Components: len(prov.Components),
			Firings:    firings,
			Effects:    effects,
		}
	}

	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return outcome{status: http.StatusInternalServerError, err: &ErrorResponse{
			Error: err.Error(), Kind: KindInternal, RequestID: id,
		}}
	}
	body = append(body, '\n')
	if useCache {
		s.cache.Put(key, body)
	}
	return outcome{status: http.StatusOK, body: body, cacheState: "miss"}
}

// withDeadline derives the synthesis context: the request deadline clamped
// to the configured maximum, or the server default when absent.
func (s *Server) withDeadline(ctx context.Context, deadlineMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
		if d > s.cfg.MaxDeadline {
			d = s.cfg.MaxDeadline
		}
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// errorOutcome maps a synthesis error to its wire form.
func (s *Server) errorOutcome(err error, id string) outcome {
	var dl flow.DiagnosticList
	switch {
	case errors.As(err, &dl):
		resp := &ErrorResponse{Error: dl.Error(), Kind: KindInput, RequestID: id}
		for _, d := range dl {
			resp.Diagnostics = append(resp.Diagnostics, Diagnostic{
				File: d.Pos.File, Line: d.Pos.Line, Col: d.Pos.Col,
				Stage: d.Stage, Msg: d.Msg, SrcLine: d.SrcLine,
			})
		}
		return outcome{status: http.StatusUnprocessableEntity, err: resp}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return s.ctxOutcome(err, id)
	default:
		return outcome{status: http.StatusInternalServerError, err: &ErrorResponse{
			Error: err.Error(), Kind: KindInternal, RequestID: id,
		}}
	}
}

// ctxOutcome maps a context error: deadline → 504, client gone → 499-ish
// (written as 503; the connection is usually already dead).
func (s *Server) ctxOutcome(err error, id string) outcome {
	if errors.Is(err, context.DeadlineExceeded) {
		s.met.deadlineExceeded.Add(1)
		return outcome{status: http.StatusGatewayTimeout, err: &ErrorResponse{
			Error: "synthesis deadline exceeded", Kind: KindDeadline, RequestID: id,
		}}
	}
	s.met.canceled.Add(1)
	return outcome{status: http.StatusServiceUnavailable, err: &ErrorResponse{
		Error: "request canceled", Kind: KindCanceled, RequestID: id,
	}}
}

func allocatorName(opt flow.Options) string {
	if opt.Allocator == "" {
		return flow.AllocDAA
	}
	return opt.Allocator
}

// ---------------------------------------------------------------------------
// Body decoding and response writing.

// decodeErr pairs an error body with its status for decodeBody.
type decodeErr struct {
	status int
	body   *ErrorResponse
}

// decodeBody reads a size-limited JSON body into v.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *decodeErr {
	id := requestID(r.Context())
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &decodeErr{http.StatusRequestEntityTooLarge, &ErrorResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				Kind:  KindRequest, RequestID: id,
			}}
		}
		return &decodeErr{http.StatusBadRequest, &ErrorResponse{
			Error: fmt.Sprintf("malformed request: %v", err), Kind: KindRequest, RequestID: id,
		}}
	}
	return nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, resp *ErrorResponse) {
	s.cfg.Logger.Printf("%s error %d %s: %s", requestID(r.Context()), status, resp.Kind, resp.Error)
	if status == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
		// Shed load tells the client when to come back; cluster routers
		// forward the header instead of retrying into the same overload.
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, resp)
}
