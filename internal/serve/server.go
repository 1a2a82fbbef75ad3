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
	frame   Frame
	cache   *lru.Cache[string, []byte]           // design cache: rendered bodies
	flights flights                              // cached jobs being computed
	explain *lru.Cache[string, *core.Provenance] // explain store
	met     metrics
	start   time.Time

	slots    chan struct{} // worker tokens; len == Workers
	waiting  atomic.Int64  // admitted requests (queued + in flight)
	inflight atomic.Int64  // requests holding a worker token
	draining atomic.Bool
	ready    atomic.Bool // readiness gate: false before warmup completes

	http http.Server

	// synthesize runs one compilation; tests substitute it to simulate
	// slow or stuck synthesis without real workloads.
	synthesize func(ctx context.Context, in flow.Input, opt flow.Options) (*flow.Result, error)
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers: one that stalls mid-header is closed instead of holding
// a connection and a goroutine forever. A variable so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

// readTimeout bounds how long a connection may take to send a whole
// request, body included: one that stalls mid-body is closed. It does not
// cut off a long synthesis, since net/http clears the read deadline once
// the handler has the body. With IdleTimeout unset it also closes idle
// keep-alive connections. A variable so tests can shorten it.
var readTimeout = time.Minute

// New builds a Server from cfg (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.FrontCacheEntries > 0 {
		flow.SetCacheCap(cfg.FrontCacheEntries)
	}
	s := &Server{
		cfg:        cfg,
		frame:      Frame{IDPrefix: "r-", IDHeader: "X-DAAD-Request", MaxBodyBytes: cfg.MaxBodyBytes, Logger: cfg.Logger},
		cache:      newDesignCache(cfg.CacheEntries),
		explain:    lru.New[string, *core.Provenance](DefaultExplainCacheEntries),
		start:      time.Now(),
		slots:      make(chan struct{}, cfg.Workers),
		synthesize: flow.Compile,
	}
	s.ready.Store(true)
	s.http.Handler = s.Handler()
	s.http.ReadHeaderTimeout = readHeaderTimeout
	s.http.ReadTimeout = readTimeout
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
	j, err := s.synthesizeJob(SynthesizeRequest{Name: "warmup.isps", Source: src})
	if err != nil {
		return err
	}
	if out := s.run(ctx, j, true); out.err != nil {
		return fmt.Errorf("warmup synthesis: %s", out.err.Error)
	}
	return nil
}

// Handler returns the daemon's full HTTP handler: the /v1 mux inside the
// request frame.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range s.endpoints() {
		mux.HandleFunc("POST "+ep.path, s.handlePost(ep))
	}
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	if s.cfg.ID == "" {
		return s.frame.Wrap(mux)
	}
	return s.frame.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-DAAD-Worker", s.cfg.ID)
		mux.ServeHTTP(w, r)
	}))
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
// Admission control.

var (
	errDraining = &Refusal{http.StatusServiceUnavailable, KindShutdown, "server is draining"}
	errOverload = &Refusal{http.StatusTooManyRequests, KindOverload, "admission queue full, retry later"}
)

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
// The POST table.

// endpoint is one row of the daemon's POST table: the path, its request
// counter, whether it answers through the design cache (and so reports
// X-DAAD-Cache), and how a request body becomes an outcome. Every row
// shares the drain refusal, the frame's body reader and the response
// writer; every computation runs the one sequence in run.
type endpoint struct {
	path     string
	requests *atomic.Int64
	cached   bool
	serve    func(ctx context.Context, body []byte) outcome
}

// endpoints lists the POST table. Synthesize, explore and lint each run
// one job; a batch is admitted as a unit and runs one synthesize job per
// source.
func (s *Server) endpoints() []endpoint {
	return []endpoint{
		{"/v1/synthesize", &s.met.synthesize, true, one(s, s.synthesizeJob)},
		{"/v1/explore", &s.met.exploreReq, true, one(s, s.exploreJob)},
		{"/v1/lint", &s.met.lintReq, false, one(s, s.lintJob)},
		{"/v1/batch", &s.met.batch, false, s.batch},
	}
}

// handlePost serves one row of the POST table.
func (s *Server) handlePost(ep endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Add(1)
		var out outcome
		if s.draining.Load() {
			out = s.errorOutcome(errDraining)
		} else if body, err := s.frame.ReadBody(w, r); err != nil {
			out = s.errorOutcome(err)
		} else {
			out = ep.serve(r.Context(), body)
		}
		s.write(w, r, out, ep.cached)
	}
}

// one builds the serve function of a single-job endpoint from its job
// constructor.
func one[R any](s *Server, prepare func(R) (job, error)) func(context.Context, []byte) outcome {
	return func(ctx context.Context, body []byte) outcome {
		var req R
		if err := DecodeRequest(body, &req); err != nil {
			return s.errorOutcome(err)
		}
		j, err := prepare(req)
		if err != nil {
			return s.errorOutcome(err)
		}
		return s.run(ctx, j, false)
	}
}

// job is one validated request: its design-cache key ("" bypasses the
// cache and never joins identical work in flight), its deadline, and the
// computation rendering its response body.
type job struct {
	key        string
	deadlineMS int
	compute    func(ctx context.Context) ([]byte, error)
}

// outcome is one request's fate: a rendered success body or an error.
type outcome struct {
	status     int
	body       []byte
	err        *ErrorResponse
	cacheState string // "hit" or "miss"
}

// run is the one cache lookup → admission → join → worker token →
// compute → store sequence. admitted skips admission for work admitted as
// part of a unit (batch items, warmup). The request context carries the
// client connection: its cancellation propagates through flow into the
// production engine's between-cycle Interrupt hook.
func (s *Server) run(ctx context.Context, j job, admitted bool) outcome {
	// Cache lookup happens before admission: a repeat submission is served
	// in O(lookup) without consuming queue capacity or a worker token.
	if out, ok := s.lookup(j); ok {
		return out
	}
	if !admitted {
		if !s.admitN(1) {
			return s.errorOutcome(errOverload)
		}
		defer s.leave()
	}
	if j.key == "" {
		return s.compute(ctx, j)
	}
	// Identical work runs once: the first request for a key leads its
	// flight, and the requests arriving while it runs follow it.
	f, leader := s.flights.join(j.key)
	if leader {
		return s.lead(ctx, j, f)
	}
	return s.follow(ctx, j, f)
}

// lookup answers j from the design cache when it holds j's body.
func (s *Server) lookup(j job) (outcome, bool) {
	if j.key == "" || s.cache.Cap() == 0 {
		return outcome{}, false
	}
	body, ok := s.cache.Get(j.key)
	return outcome{status: http.StatusOK, body: body, cacheState: "hit"}, ok
}

// lead computes j for the flight f it leads and releases f's followers
// with the body, or with nil when the computation failed. The release is
// deferred so that a panicking computation releases them too.
func (s *Server) lead(ctx context.Context, j job, f *flight) (out outcome) {
	defer func() { s.flights.finish(j.key, f, out.body) }()
	return s.compute(ctx, j)
}

// follow answers a request that joined f with the leader's body, taking no
// worker token. When the leader fails, the follower looks its key up
// again and joins or leads the next flight: no error is shared. It waits
// no longer than its own client and deadline allow.
func (s *Server) follow(ctx context.Context, j job, f *flight) outcome {
	wait, cancel := s.withDeadline(ctx, j.deadlineMS)
	defer cancel()
	for {
		s.met.joined.Add(1)
		select {
		case <-f.done:
		case <-wait.Done():
			return s.errorOutcome(wait.Err())
		}
		if f.body != nil {
			return outcome{status: http.StatusOK, body: f.body, cacheState: "miss"}
		}
		if out, ok := s.lookup(j); ok {
			return out
		}
		var leader bool
		if f, leader = s.flights.join(j.key); leader {
			return s.lead(ctx, j, f)
		}
	}
}

// compute runs j on a worker token under j's deadline and stores its body
// in the design cache.
func (s *Server) compute(ctx context.Context, j job) outcome {
	if err := s.acquire(ctx); err != nil {
		return s.errorOutcome(err)
	}
	defer s.release()

	ctx, cancel := s.withDeadline(ctx, j.deadlineMS)
	defer cancel()
	body, err := j.compute(ctx)
	if err != nil {
		return s.errorOutcome(err)
	}
	if j.key != "" && s.cache.Cap() > 0 {
		s.cache.Put(j.key, body)
	}
	return outcome{status: http.StatusOK, body: body, cacheState: "miss"}
}

// write answers one outcome. Error bodies carry the request ID.
func (s *Server) write(w http.ResponseWriter, r *http.Request, out outcome, cached bool) {
	if out.err != nil {
		out.err.RequestID = requestID(r.Context())
		s.frame.WriteError(w, r, out.status, out.err)
		return
	}
	if cached {
		w.Header().Set("X-DAAD-Cache", out.cacheState)
	}
	writeBody(w, out.status, out.body)
}

// errorOutcome maps an error to its wire form: refusals keep their status,
// diagnostics are 422, a deadline is 504, a client gone is 503 (the
// connection is usually already dead), anything else 500.
func (s *Server) errorOutcome(err error) outcome {
	var ref *Refusal
	var dl flow.DiagnosticList
	status, kind, msg := http.StatusInternalServerError, KindInternal, err.Error()
	switch {
	case errors.As(err, &ref):
		status, kind, msg = ref.Status, ref.Kind, ref.Msg
	case errors.As(err, &dl):
		return outcome{status: http.StatusUnprocessableEntity, err: &ErrorResponse{
			Error: dl.Error(), Kind: KindInput, Diagnostics: wireDiagnostics(dl),
		}}
	case errors.Is(err, context.DeadlineExceeded):
		s.met.deadlineExceeded.Add(1)
		status, kind, msg = http.StatusGatewayTimeout, KindDeadline, "synthesis deadline exceeded"
	case errors.Is(err, context.Canceled):
		s.met.canceled.Add(1)
		status, kind, msg = http.StatusServiceUnavailable, KindCanceled, "request canceled"
	}
	return outcome{status: status, err: &ErrorResponse{Error: msg, Kind: kind}}
}

// badRequest refuses a request with 400.
func badRequest(msg string) error {
	return &Refusal{http.StatusBadRequest, KindRequest, msg}
}

// withDeadline derives the computation's context: the request deadline
// clamped to the configured maximum, or the server default when absent.
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

// ---------------------------------------------------------------------------
// The jobs.

// synthesizeJob validates one synthesize request — a /v1/synthesize body
// or a batch item — into its job.
func (s *Server) synthesizeJob(req SynthesizeRequest) (job, error) {
	if strings.TrimSpace(req.Source) == "" {
		return job{}, badRequest("empty source")
	}
	in, opt, err := req.lower()
	if err != nil {
		return job{}, badRequest(err.Error())
	}
	ekey := explainKey(in, opt)
	j := job{deadlineMS: req.DeadlineMS, compute: func(ctx context.Context) ([]byte, error) {
		res, err := s.synthesize(ctx, in, opt)
		if err != nil {
			return nil, err
		}
		s.met.observeResult(res)
		return s.renderSynthesis(req, ekey, opt, res)
	}}
	if !req.NoCache && opt.Cacheable() {
		j.key = designKey(ekey, req.Artifacts, req.Timings)
	}
	return j, nil
}

// renderSynthesis renders a completed compilation as the synthesize
// response body, storing its provenance in the explain store under ekey.
func (s *Server) renderSynthesis(req SynthesizeRequest, ekey string, opt flow.Options, res *flow.Result) ([]byte, error) {
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
			if err := res.Control.Write(&sb); err != nil {
				return nil, err
			}
			art.ControlTable = sb.String()
		}
		if req.Artifacts.Dot {
			var sb strings.Builder
			if err := res.Design.WriteControlFlowDot(&sb); err != nil {
				return nil, err
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
		s.explain.Put(ekey, prov)
		firings, effects := res.Journal().Counts()
		resp.Provenance = &ProvenanceSummary{
			Key:        ekey,
			Components: len(prov.Components),
			Firings:    firings,
			Effects:    effects,
		}
	}
	return render(resp)
}

// batch fans a batch's sources out on the worker pool. The whole batch is
// admitted (or shed) as a unit; each source then competes for worker
// tokens individually, so batch fan-out is bounded by the same pool as
// single requests.
func (s *Server) batch(ctx context.Context, body []byte) outcome {
	var req BatchRequest
	err := DecodeRequest(body, &req)
	if err == nil {
		err = req.Check()
	}
	if err != nil {
		return s.errorOutcome(err)
	}
	n := len(req.Requests)
	s.met.batchItems.Add(int64(n))
	if !s.admitN(n) {
		return s.errorOutcome(errOverload)
	}
	items := make([]BatchItem, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range req.Requests {
		go func(i int) {
			defer wg.Done()
			defer s.leave()
			var out outcome
			if j, err := s.synthesizeJob(req.Requests[i]); err != nil {
				out = s.errorOutcome(err)
			} else {
				out = s.run(ctx, j, true)
			}
			if out.err != nil {
				// Item errors carry no request ID: the X-DAAD-Request header
				// already identifies the batch, and per-item IDs would break
				// byte-determinism of the body.
				items[i] = BatchItem{Error: out.err}
				return
			}
			var resp SynthesizeResponse
			if err := json.Unmarshal(out.body, &resp); err != nil {
				items[i] = BatchItem{Error: &ErrorResponse{Error: err.Error(), Kind: KindInternal}}
				return
			}
			items[i] = BatchItem{Result: &resp}
		}(i)
	}
	wg.Wait()
	resp, err := render(BatchResponse{Results: items})
	if err != nil {
		return s.errorOutcome(err)
	}
	return outcome{status: http.StatusOK, body: resp}
}

// lintJob runs the semantic linters without synthesizing: the ISPS source
// lint behind `ispsfmt -lint` and/or the rule-base lint behind
// `daa -lint-rules`. Lint work is admitted through the same bounded worker
// pool as synthesis, so a corpus-triage client cannot starve interactive
// requests. Findings are a verdict (200, clean=false); only sources the
// front end rejects outright answer 422.
func (s *Server) lintJob(req LintRequest) (job, error) {
	if strings.TrimSpace(req.Source) == "" && !req.Rules {
		return job{}, badRequest("nothing to lint: supply source, rules, or both")
	}
	return job{compute: func(ctx context.Context) ([]byte, error) {
		var resp LintResponse
		if strings.TrimSpace(req.Source) != "" {
			in := flowInput(req.Name, req.Source)
			prog, err := flow.Parse(ctx, in)
			if err != nil {
				return nil, err
			}
			resp.Name = in.Name
			resp.Findings = wireDiagnostics(flow.LintDiagnostics(in, isps.Lint(prog)))
		}
		if req.Rules {
			kb := core.KnowledgeBase()
			rb := &RuleBaseLint{Phases: len(kb)}
			for _, ph := range kb {
				rb.Rules += len(ph.Rules)
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
		return render(resp)
	}}, nil
}

// ---------------------------------------------------------------------------
// GET handlers.

// handleExplain serves the provenance of a previously journaled design.
// The key comes from the synthesize response's provenance summary; an
// unknown (or evicted) key is 404 — synthesize with options.provenance
// first.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.met.explainReq.Add(1)
	key := r.URL.Query().Get("key")
	if key == "" {
		s.write(w, r, s.errorOutcome(ErrMissingExplainKey), false)
		return
	}
	prov, ok := s.explain.Get(key)
	if !ok {
		s.write(w, r, s.errorOutcome(&Refusal{http.StatusNotFound, KindRequest,
			"no journaled design under this key; synthesize with options.provenance first"}), false)
		return
	}
	sel := r.URL.Query().Get("sel")
	var sb strings.Builder
	matched := prov.Explain(&sb, sel)
	s.frame.WriteJSON(w, http.StatusOK, ExplainResponse{
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
	s.frame.WriteJSON(w, code, HealthResponse{
		Status:     status,
		Ready:      ready,
		Worker:     s.cfg.ID,
		InFlight:   inflight,
		QueueDepth: max64(waiting-inflight, 0),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.metricsReq.Add(1)
	s.frame.WriteJSON(w, http.StatusOK, s.Metrics())
}

func allocatorName(opt flow.Options) string {
	if opt.Allocator == "" {
		return flow.AllocDAA
	}
	return opt.Allocator
}
