package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of unsorted values.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// The harness runs in the process it measures, and the garbage collector
// paces itself by the live heap, so the harness keeps its own memory
// constant through the timed phase: a growing sample buffer would make the
// collector run less often, and the workload faster, as a run goes on.

// reservoirCap bounds the latencies a reservoir keeps.
const reservoirCap = 8192

// reservoir keeps a uniform sample of at most reservoirCap latencies, in
// milliseconds, and the count and sum of all of them.
type reservoir struct {
	rng  *rand.Rand
	n    int
	sum  float64
	vals []float64
}

func newReservoir() *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(1)), vals: make([]float64, 0, reservoirCap)}
}

func (r *reservoir) add(lat time.Duration) {
	v := ms(lat)
	r.n++
	r.sum += v
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
	} else if i := r.rng.Intn(r.n); i < len(r.vals) {
		r.vals[i] = v
	}
}

func (r *reservoir) mean() float64 { return r.sum / float64(r.n) }

// heapSampler reads the live heap (as of the last GC) every heapEvery
// while the timed phase runs, into a buffer sized for the phase.
type heapSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64
}

const heapEvery = 10 * time.Millisecond

func newHeapSampler(dur time.Duration) *heapSampler {
	return &heapSampler{
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
		samples: make([]float64, 0, dur/heapEvery+100),
	}
}

func (h *heapSampler) start() {
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-t.C:
			case <-h.stopc:
				return
			}
		}
	}()
}

// stop ends sampling and returns the samples, sorted.
func (h *heapSampler) stop() []float64 {
	close(h.stopc)
	<-h.done
	sort.Float64s(h.samples)
	return h.samples
}

// tally sums per-layer values over the traced ops of a timed phase.
type tally struct {
	mu  sync.Mutex
	n   int
	sum map[string]float64
}

// add records one traced op's values.
func (t *tally) add(vals map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sum == nil {
		t.sum = map[string]float64{}
	}
	t.n++
	for k, v := range vals {
		t.sum[k] += v
	}
}

// means returns each value's mean per traced op.
func (t *tally) means() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for k, v := range t.sum {
		out[k] = v / float64(t.n)
	}
	return out
}

// stageMetric names the per-layer metric of each pipeline stage.
var stageMetric = map[string]string{
	"parse":    "isps.parse_ms",
	"sema":     "isps.sema_ms",
	"build":    "vt.build_ms",
	"allocate": "core.allocate_ms",
	"validate": "rtl.validate_ms",
	"cost":     "cost.cost_ms",
	"emit":     "rtl.emit_ms",
	"cosim":    "sim.cosim_ms",
}

// addStage records one pipeline stage's time under its layer name; the
// front-half stages also add to flow.front_ms.
func addStage(vals map[string]float64, stage string, ms float64) {
	vals[stageMetric[stage]] += ms
	if stage == "parse" || stage == "sema" || stage == "build" {
		vals["flow.front_ms"] += ms
	}
}

// timedHandler wraps h so that, while tracing is on, each synthesize
// request adds its handler time to ns and one to n.
func timedHandler(h http.Handler, tracing *atomic.Bool, ns, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tracing.Load() || r.URL.Path != "/v1/synthesize" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		ns.Add(int64(time.Since(t0)))
		n.Add(1)
	})
}

// post sends one synthesize request and returns the response, its body
// and the latency up to the last body byte.
func post(ctx context.Context, c *http.Client, url string, body []byte) (*http.Response, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	if err != nil {
		return nil, nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, 0, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, out)
	}
	return resp, out, lat, nil
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// newClient returns a keep-alive client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
