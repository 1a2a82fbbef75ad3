// Command perfbench is the repository benchmark: closed-loop workloads that
// call the synthesis stack through its public entry points, check every
// output, and print one JSON result line.
//
//	perfbench --workload synth-6502 --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	synth-6502   one caller runs flow.Compile on mcs6502 in-process, front
//	             end cached (the paper's experiment: core and prod)
//	serve-hot    two keep-alive connections post the nine embedded
//	             benchmarks through a cluster coordinator over two serve
//	             workers; every op is a design-cache hit (cluster and serve)
//	verify-cold  one connection posts ibm370 with verify, provenance and
//	             Verilog under a unique name; every op misses and evicts
//	             one entry per cache (isps, vt, core, rtl, sim, serve caches)
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer split, measured in alternating traced and
// untraced segments so the tracing overhead is reported too. Run it
// through run.sh, which builds it from the checkout's sources.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// setupReps is how many times a run sets its workload up from
	// scratch; setup_s is the median.
	setupReps = 5
	// minOps is the fewest ops a timed phase completes, whatever its
	// length, so that at least ten latency samples lie beyond p95.
	minOps = 200
	// segment is the length of one traced or untraced stretch of a
	// traced run.
	segment = 500 * time.Millisecond
	// watchdog ends a run that hangs.
	watchdog = 170 * time.Second
)

// A workload sets up a fresh instance of itself; setup is what setup_s
// times. tracing is on during the traced segments of a traced run.
type workload struct {
	callers int
	setup   func(ctx context.Context, tracing *atomic.Bool) (instance, error)
}

// An instance is one set-up workload.
type instance interface {
	// begin snapshots the counters the timed phase is checked against.
	begin(ctx context.Context) error
	// op runs one operation for a caller and checks its output; it
	// returns the latency the caller saw. traced ops also record their
	// per-layer split.
	op(ctx context.Context, caller int, traced bool) (time.Duration, error)
	// finish checks the timed phase as a whole and returns the per-layer
	// metrics of its traced ops.
	finish(ctx context.Context, ops int) (map[string]float64, error)
	close()
}

var workloads = map[string]func(seed int64) (workload, error){
	"synth-6502":  newSynth,
	"serve-hot":   newServeHot,
	"verify-cold": newVerifyCold,
}

type metric struct{ name, unit string }

var endToEnd = []metric{
	{"ops_per_s", "ops/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"alloc_kb_per_op", "KiB/op"},
	{"heap_live_mb_p95", "MiB"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer is every per-layer metric. A workload reports 0 for a layer
// it bypasses.
var perLayer = []metric{
	{"core.trace_ms", "ms"},
	{"core.data-memory_ms", "ms"},
	{"core.control_ms", "ms"},
	{"core.operators_ms", "ms"},
	{"core.values_ms", "ms"},
	{"core.datapath_ms", "ms"},
	{"core.cleanup_ms", "ms"},
	{"core.allocate_ms", "ms"},
	{"prod.match_ms", "ms"},
	{"core.outside_match_ms", "ms"},
	{"flow.front_ms", "ms"},
	{"isps.parse_ms", "ms"},
	{"isps.sema_ms", "ms"},
	{"vt.build_ms", "ms"},
	{"rtl.validate_ms", "ms"},
	{"cost.cost_ms", "ms"},
	{"rtl.emit_ms", "ms"},
	{"sim.cosim_ms", "ms"},
	{"flow.other_ms", "ms"},
	{"prod.firings", "count"},
	{"prod.cycles", "count"},
	{"prod.pattern_tests", "count"},
	{"prod.join_tests", "count"},
	{"prod.token_asserts", "count"},
	{"prod.join_nodes", "count"},
	{"client.transport_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.handler_self_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.body_kb", "KiB"},
	{"cluster.coalesced", "count"},
	{"cluster.failovers", "count"},
	{"serve.design_evictions_per_op", "ratio"},
	{"flow.front_evictions_per_op", "ratio"},
	{"serve.explain_evictions_per_op", "ratio"},
	{"bench.traced_ops", "count"},
	{"bench.trace_overhead_pct", "%"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: synth-6502, serve-hot or verify-cold")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload synth-6502|serve-hot|verify-cold --seed N --seconds S --trace 0|1\n")
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s still running after %v\n", *name, watchdog)
		os.Exit(3)
	})
	w, err := mk(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, err := measure(context.Background(), w, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up setupReps times, then drives its callers
// in a closed loop for dur (and at least minOps ops).
func measure(ctx context.Context, w workload, dur time.Duration, traced bool) (*result, error) {
	var tracing atomic.Bool
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, &tracing); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	if err := inst.begin(ctx); err != nil {
		return nil, err
	}

	var (
		mu       sync.Mutex
		lats     = [2]*reservoir{newReservoir(), newReservoir()} // untraced, traced
		failed   int
		firstErr error
		heap     = newHeapSampler(dur)
		wg       sync.WaitGroup
	)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	heap.start()
	stopSegments := make(chan struct{})
	var segWG sync.WaitGroup
	if traced {
		segWG.Add(1)
		go func() {
			defer segWG.Done()
			t := time.NewTicker(segment)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					tracing.Store(!tracing.Load())
				case <-stopSegments:
					return
				}
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				more := time.Now().Before(deadline) || lats[0].n+lats[1].n < minOps
				mu.Unlock()
				if !more {
					return
				}
				tr := tracing.Load()
				lat, err := inst.op(ctx, c, tr)
				mu.Lock()
				if tr {
					lats[1].add(lat)
				} else {
					lats[0].add(lat)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(stopSegments)
	segWG.Wait()
	tracing.Store(false)
	heapLive := heap.stop()
	runtime.ReadMemStats(&after)

	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed ops, first: %v\n", failed, firstErr)
	}
	ops := lats[0].n + lats[1].n
	layers, finishErr := inst.finish(ctx, ops)
	if finishErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", finishErr)
	}
	res := &result{
		Correct:   failed == 0 && finishErr == nil,
		Attempted: ops,
		Failed:    failed,
		Metrics:   map[string]value{},
	}

	if traced {
		if layers == nil {
			layers = map[string]float64{}
		}
		layers["bench.traced_ops"] = float64(lats[1].n)
		if lats[0].n > 0 && lats[1].n > 0 {
			layers["bench.trace_overhead_pct"] = 100 * (lats[1].mean()/lats[0].mean() - 1)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = value{finite(layers[m.name]), m.unit}
		}
		return res, nil
	}

	sorted := lats[0].vals
	sort.Float64s(sorted)
	e2e := map[string]float64{
		"ops_per_s":        float64(ops) / wall.Seconds(),
		"latency_ms_p50":   percentile(sorted, 50),
		"latency_ms_p95":   percentile(sorted, 95),
		"alloc_kb_per_op":  float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ops),
		"heap_live_mb_p95": percentile(heapLive, 95) / (1 << 20),
		"ok_ratio":         float64(ops-failed) / float64(ops),
		"setup_s":          median(setups),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = value{finite(e2e[m.name]), m.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops in %v, set-ups %v\n", ops, wall.Round(time.Millisecond), setups)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite maps the NaN or infinity of an empty ratio to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
