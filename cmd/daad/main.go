// Command daad is the DAA synthesis daemon: a long-running HTTP/JSON
// service over the staged pipeline, turning the batch synthesizer into
// the interactive assistant the paper pitches. Clients submit ISPS
// behavioral descriptions and get back register-transfer structures, cost
// tables, and positioned diagnostics; cmd/daa targets a daemon with
// -remote, and perfbench's serve-hot and verify-cold workloads drive one
// for serving-path benchmarks.
//
// Usage:
//
//	daad                          serve on :8547 with defaults
//	daad -addr :9000 -workers 8   bind elsewhere, bound the pool
//	daad -queue 128 -cache 1024   deeper admission queue, bigger cache
//	daad -id w3 -warmup           name the worker, warm before ready
//	daad -cluster 3               coordinator + 3 in-process workers
//	daad -coordinator -peers host1:8547,host2:8547
//
// Endpoints (see internal/serve): POST /v1/synthesize, POST /v1/batch,
// POST /v1/lint, POST /v1/explore (knob-grid sweeps to a Pareto front,
// bounded by -max-grid), GET /v1/explain, GET /v1/healthz,
// GET /v1/metrics. Cluster modes add GET /v1/cluster (see
// internal/cluster).
//
// On SIGINT/SIGTERM the daemon drains gracefully: new work is refused
// with 503 while in-flight syntheses run to completion, bounded by
// -drain-timeout. In cluster modes the coordinator drains first, then
// the workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/flow"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8547", "listen address")
		workers      = flag.Int("workers", 0, "max concurrent syntheses (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admission queue depth beyond the workers (requests past it get 429)")
		cacheN       = flag.Int("cache", 0, "design-cache entries (0 = default, negative disables)")
		frontCacheN  = flag.Int("front-cache", 0, "front-end artifact cache entries (0 = flow default)")
		maxBody      = flag.Int64("max-body", 1<<20, "request body size limit in bytes")
		deadline     = flag.Duration("deadline", 60*time.Second, "default per-request synthesis deadline")
		maxDeadline  = flag.Duration("max-deadline", 5*time.Minute, "clamp on client-supplied deadlines")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for in-flight work")
		maxGrid      = flag.Int("max-grid", 0, "largest /v1/explore grid accepted, in points (0 = default 64, negative turns /v1/explore off)")

		id            = flag.String("id", "", "worker identity reported in X-DAAD-Worker")
		warmup        = flag.Bool("warmup", false, "synthesize a small benchmark before reporting ready")
		clusterN      = flag.Int("cluster", 0, "boot a coordinator on -addr over this many in-process workers (smoke mode)")
		coordinator   = flag.Bool("coordinator", false, "route to external workers listed in -peers instead of synthesizing")
		peers         = flag.String("peers", "", "comma-separated worker addresses for -coordinator (host:port or full URLs)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "readiness-probe spacing per worker (cluster modes)")
	)
	flag.Parse()
	cfg := serve.Config{
		ID:                *id,
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheEntries:      *cacheN,
		FrontCacheEntries: *frontCacheN,
		MaxBodyBytes:      *maxBody,
		DefaultDeadline:   *deadline,
		MaxDeadline:       *maxDeadline,
		MaxGridPoints:     *maxGrid,
		Logger:            log.New(os.Stderr, "daad ", log.LstdFlags|log.Lmicroseconds),
	}
	var err error
	switch {
	case *clusterN > 0 && *coordinator:
		err = flow.Usagef("-cluster and -coordinator are exclusive: the former boots its own workers")
	case *clusterN > 0:
		err = runSmokeCluster(*addr, *clusterN, cfg, *drainTimeout, *probeInterval)
	case *coordinator:
		err = runCoordinator(*addr, *peers, *drainTimeout, *probeInterval, cfg.Logger)
	default:
		err = run(*addr, cfg, *drainTimeout, *warmup)
	}
	if err != nil {
		flow.WriteError(os.Stderr, "daad", err)
		os.Exit(flow.ExitCode(err))
	}
}

func run(addr string, cfg serve.Config, drainTimeout time.Duration, warmup bool) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	s := serve.New(cfg)
	if warmup {
		// Serve while warming — liveness stays up and early requests are
		// answered — but fail readiness so routers wait for a hot worker.
		s.SetReady(false)
		go func() {
			if err := s.Warm(context.Background()); err != nil {
				cfg.Logger.Printf("warmup failed (serving anyway): %v", err)
			}
			s.SetReady(true)
			cfg.Logger.Printf("warm, reporting ready")
		}()
	}
	cfg.Logger.Printf("listening on http://%s (workers=%d queue=%d)", l.Addr(), effectiveWorkers(cfg), cfg.QueueDepth)
	return serveUntilSignal(cfg.Logger, drainTimeout, func() error { return s.Serve(l) }, s.Shutdown)
}

func effectiveWorkers(cfg serve.Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}
