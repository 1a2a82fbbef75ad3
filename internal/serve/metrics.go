package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flow"
	"repro/internal/prod"
)

// metrics is the server's counter set. Everything is lock-free atomics
// except the per-stage wall-time map, which is tiny (eight stages at most)
// and touched once per completed compilation.
type metrics struct {
	synthesize atomic.Int64 // POST /v1/synthesize requests
	batch      atomic.Int64 // POST /v1/batch requests
	batchItems atomic.Int64 // individual sources across batch requests
	lintReq    atomic.Int64 // POST /v1/lint requests
	exploreReq atomic.Int64 // POST /v1/explore requests
	// explorePoints counts the grid points explore requests expanded to —
	// the daemon-side measure of sweep amplification.
	explorePoints atomic.Int64
	healthz       atomic.Int64
	metricsReq    atomic.Int64

	shed             atomic.Int64 // 429s from the admission queue
	canceled         atomic.Int64 // syntheses interrupted by client disconnect
	deadlineExceeded atomic.Int64 // syntheses interrupted by deadline

	synthesized   atomic.Int64 // compilations that ran to completion
	firings       atomic.Int64 // prod rollups across completed DAA runs
	matchCalls    atomic.Int64
	deltas        atomic.Int64
	rebuilds      atomic.Int64
	alphaEvals    atomic.Int64 // Rete network rollups across completed runs
	joinTests     atomic.Int64
	tokenAsserts  atomic.Int64
	tokenRetracts atomic.Int64

	cosimRuns       atomic.Int64 // completed syntheses that carried a cosim verdict
	cosimMismatches atomic.Int64 // verdicts that were not equivalent
	cosimHung       atomic.Int64 // stimulus vectors both sides failed to finish
	cosimSamples    atomic.Int64 // state samples compared across verdicts

	explainReq     atomic.Int64 // GET /v1/explain requests
	journaledRuns  atomic.Int64 // completed syntheses that carried a journal
	journalFirings atomic.Int64 // firings recorded across those journals
	journalEffects atomic.Int64 // effects recorded across those journals

	stageMu sync.Mutex
	stageNS map[string]int64 // cumulative wall time per pipeline stage
}

// observeResult folds one completed compilation into the counters.
func (m *metrics) observeResult(res *flow.Result) {
	m.synthesized.Add(1)
	if res.Synth != nil {
		st := res.Synth.Stats
		m.firings.Add(int64(st.TotalFirings))
		m.matchCalls.Add(int64(st.TotalMatchCalls))
		em := st.EngineMetrics()
		m.deltas.Add(int64(em.Deltas))
		m.rebuilds.Add(int64(em.Rebuilds))
		m.alphaEvals.Add(int64(em.AlphaEvals))
		m.joinTests.Add(int64(em.JoinTests))
		m.tokenAsserts.Add(int64(em.TokenAsserts))
		m.tokenRetracts.Add(int64(em.TokenRetracts))
		if j := res.Synth.Journal; j != nil {
			firings, effects := j.Counts()
			m.journaledRuns.Add(1)
			m.journalFirings.Add(int64(firings))
			m.journalEffects.Add(int64(effects))
		}
	}
	if rep := res.Cosim; rep != nil {
		m.cosimRuns.Add(1)
		if !rep.Equivalent {
			m.cosimMismatches.Add(1)
		}
		m.cosimHung.Add(int64(rep.Hung))
		m.cosimSamples.Add(int64(rep.Samples))
	}
	m.stageMu.Lock()
	if m.stageNS == nil {
		m.stageNS = map[string]int64{}
	}
	for _, s := range res.Trace.Stages {
		m.stageNS[s.Stage] += int64(s.Elapsed)
	}
	m.stageMu.Unlock()
}

// MetricsResponse is the GET /v1/metrics body.
type MetricsResponse struct {
	UptimeMS     float64            `json:"uptimeMs"`
	Requests     RequestCounts      `json:"requests"`
	Responses    ResponseCounts     `json:"responses"`
	InFlight     int64              `json:"inFlight"`
	QueueDepth   int64              `json:"queueDepth"`
	Workers      int                `json:"workers"`
	QueueCap     int                `json:"queueCap"`
	Admission    AdmissionCounts    `json:"admission"`
	DesignCache  flow.CacheStats    `json:"designCache"`
	FlowCache    flow.CacheStats    `json:"flowCache"`
	ExplainCache flow.CacheStats    `json:"explainCache"`
	StagesMS     map[string]float64 `json:"stagesMs"`
	Engine       EngineRollup       `json:"engine"`
	Journal      JournalRollup      `json:"journal"`
	Cosim        CosimRollup        `json:"cosim"`
}

// CosimRollup aggregates cosimulation activity: how many completed
// syntheses carried an equivalence verdict and what those verdicts found.
type CosimRollup struct {
	Runs       int64 `json:"runs"`
	Mismatches int64 `json:"mismatches"`
	Hung       int64 `json:"hung"`
	Samples    int64 `json:"samples"`
}

// JournalRollup aggregates effect-journal activity: how many completed
// syntheses carried a journal and how much they recorded.
type JournalRollup struct {
	ExplainRequests int64 `json:"explainRequests"`
	JournaledRuns   int64 `json:"journaledRuns"`
	Firings         int64 `json:"firings"`
	Effects         int64 `json:"effects"`
}

// RequestCounts breaks requests down by endpoint.
type RequestCounts struct {
	Synthesize int64 `json:"synthesize"`
	Batch      int64 `json:"batch"`
	BatchItems int64 `json:"batchItems"`
	Lint       int64 `json:"lint"`
	// Explore counts POST /v1/explore requests; ExplorePoints the grid
	// points those requests expanded to.
	Explore       int64 `json:"explore"`
	ExplorePoints int64 `json:"explorePoints"`
	Explain       int64 `json:"explain"`
	Healthz       int64 `json:"healthz"`
	Metrics       int64 `json:"metrics"`
}

// ResponseCounts breaks responses down by status class.
type ResponseCounts struct {
	OK2xx  int64 `json:"2xx"`
	Err4xx int64 `json:"4xx"`
	Err5xx int64 `json:"5xx"`
}

// AdmissionCounts reports load-shedding and interruption activity.
type AdmissionCounts struct {
	Shed             int64 `json:"shed"`
	Canceled         int64 `json:"canceled"`
	DeadlineExceeded int64 `json:"deadlineExceeded"`
	Panics           int64 `json:"panics"`
}

// EngineRollup aggregates production-engine activity across the server's
// lifetime. CyclesTotal is the process-wide recognize-act cycle counter,
// which advances even for runs that were interrupted mid-synthesis — the
// observable proof that cancellation stops the engine.
type EngineRollup struct {
	CyclesTotal   uint64 `json:"cyclesTotal"`
	Synthesized   int64  `json:"synthesized"`
	Firings       int64  `json:"firings"`
	MatchCalls    int64  `json:"matchCalls"`
	Deltas        int64  `json:"deltas"`
	Rebuilds      int64  `json:"rebuilds"`
	AlphaEvals    int64  `json:"alphaEvals"`
	JoinTests     int64  `json:"joinTests"`
	TokenAsserts  int64  `json:"tokenAsserts"`
	TokenRetracts int64  `json:"tokenRetracts"`
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() MetricsResponse {
	m := &s.met
	stages := map[string]float64{}
	m.stageMu.Lock()
	for k, v := range m.stageNS {
		stages[k] = ms(time.Duration(v))
	}
	m.stageMu.Unlock()
	waiting := s.waiting.Load()
	inflight := s.inflight.Load()
	return MetricsResponse{
		UptimeMS: ms(time.Since(s.start)),
		Requests: RequestCounts{
			Synthesize:    m.synthesize.Load(),
			Batch:         m.batch.Load(),
			BatchItems:    m.batchItems.Load(),
			Lint:          m.lintReq.Load(),
			Explore:       m.exploreReq.Load(),
			ExplorePoints: m.explorePoints.Load(),
			Explain:       m.explainReq.Load(),
			Healthz:       m.healthz.Load(),
			Metrics:       m.metricsReq.Load(),
		},
		Responses:  s.frame.Responses(),
		InFlight:   inflight,
		QueueDepth: max64(waiting-inflight, 0),
		Workers:    s.cfg.Workers,
		QueueCap:   s.cfg.QueueDepth,
		Admission: AdmissionCounts{
			Shed:             m.shed.Load(),
			Canceled:         m.canceled.Load(),
			DeadlineExceeded: m.deadlineExceeded.Load(),
			Panics:           s.frame.Panics(),
		},
		DesignCache:  s.cache.Stats(),
		FlowCache:    flow.FrontCacheStats(),
		ExplainCache: s.explain.Stats(),
		StagesMS:     stages,
		Engine: EngineRollup{
			CyclesTotal:   prod.TotalEngineCycles(),
			Synthesized:   m.synthesized.Load(),
			Firings:       m.firings.Load(),
			MatchCalls:    m.matchCalls.Load(),
			Deltas:        m.deltas.Load(),
			Rebuilds:      m.rebuilds.Load(),
			AlphaEvals:    m.alphaEvals.Load(),
			JoinTests:     m.joinTests.Load(),
			TokenAsserts:  m.tokenAsserts.Load(),
			TokenRetracts: m.tokenRetracts.Load(),
		},
		Journal: JournalRollup{
			ExplainRequests: m.explainReq.Load(),
			JournaledRuns:   m.journaledRuns.Load(),
			Firings:         m.journalFirings.Load(),
			Effects:         m.journalEffects.Load(),
		},
		Cosim: CosimRollup{
			Runs:       m.cosimRuns.Load(),
			Mismatches: m.cosimMismatches.Load(),
			Hung:       m.cosimHung.Load(),
			Samples:    m.cosimSamples.Load(),
		},
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
