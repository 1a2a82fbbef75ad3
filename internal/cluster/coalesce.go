package cluster

// Coordinator-side coalescing of identical in-flight work. Synthesis and
// exploration are pure functions of their request bodies, so when N
// clients submit byte-identical requests concurrently the coordinator
// forwards ONE upstream call and replays its response to every waiter —
// the worker computes (and caches) the design once instead of N times.
// This is the cluster-tier complement of the worker's design cache, which
// only deduplicates requests separated in time, not concurrent ones.
//
// The upstream call runs on a refcounted context: every coalesced client
// that disconnects drops one reference, and the forward is canceled only
// when the last waiter is gone — one impatient client cannot kill the
// synthesis everyone else is waiting on.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
)

// maxCoalescedBody bounds one buffered upstream response (mirrors the
// batch gather limit).
const maxCoalescedBody = 256 << 20

// flight is one in-flight upstream call and its replayable result.
type flight struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the result fields are final

	mu   sync.Mutex
	refs int // waiters still interested; 0 cancels ctx

	// Result, valid after done: either err, or a replayable response.
	status int
	header http.Header
	body   []byte
	peer   *peerState
	err    error
}

// coalescer indexes in-flight flights by coalescing key.
type coalescer struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// join returns the flight for key, creating it when absent; the second
// result reports whether the caller is the leader who must run it.
func (c *coalescer) join(key string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flights == nil {
		c.flights = map[string]*flight{}
	}
	if f, ok := c.flights[key]; ok {
		f.mu.Lock()
		f.refs++
		f.mu.Unlock()
		return f, false
	}
	//daalint:allow ctxflow the shared upstream call must outlive any one waiter; the last leave() cancels it
	ctx, cancel := context.WithCancel(context.Background())
	f := &flight{ctx: ctx, cancel: cancel, done: make(chan struct{}), refs: 1}
	c.flights[key] = f
	return f, true
}

// leave drops one waiter's interest; the last leaver cancels the upstream
// context (harmless after the flight finished).
func (c *coalescer) leave(f *flight) {
	f.mu.Lock()
	f.refs--
	if f.refs <= 0 {
		f.cancel()
	}
	f.mu.Unlock()
}

// finish publishes the result and retires the flight from the index, so a
// request arriving after this instant starts a fresh upstream call (it
// will hit the worker's design cache anyway).
func (c *coalescer) finish(key string, f *flight) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
}

// coalesceKey is the identity two requests must share to ride one
// upstream call: the shard key (routing identity) plus the hash of the
// raw body, so requests differing only in non-canonical spelling — or in
// artifacts, deadlines, timings — never alias.
func coalesceKey(shardKey string, body []byte) string {
	return fmt.Sprintf("%s|%x", shardKey, sha256.Sum256(body))
}

// routeCoalesced is route for the coalescable POST endpoints: the first
// request for a (shard key, body) pair forwards upstream, every
// concurrent duplicate waits for that flight and replays its response.
func (co *Coordinator) routeCoalesced(w http.ResponseWriter, r *http.Request, path string, body []byte, shardKey string) {
	ck := coalesceKey(shardKey, body)
	f, leader := co.flights.join(ck)
	if leader {
		go co.runFlight(ck, f, path, body, shardKey)
	} else {
		co.met.coalesced.Add(1)
	}
	select {
	case <-f.done:
		co.flights.leave(f)
	case <-r.Context().Done():
		co.flights.leave(f)
		co.writeRouteError(w, r, r.Context().Err())
		return
	}
	if f.err != nil {
		co.writeRouteError(w, r, f.err)
		return
	}
	copyHeaders(w, f.header)
	w.WriteHeader(f.status)
	w.Write(f.body)
}

// runFlight executes one coalesced upstream call on the flight's
// refcounted context and publishes the buffered response.
func (co *Coordinator) runFlight(key string, f *flight, path string, body []byte, shardKey string) {
	defer co.flights.finish(key, f)
	resp, peer, err := co.forward(f.ctx, http.MethodPost, path, url.Values(nil), body, shardKey)
	if err != nil {
		f.err = err
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxCoalescedBody))
	if err != nil {
		f.err = fmt.Errorf("peer %s: reading response: %w", peer.id, err)
		return
	}
	co.observeResponse(peer, resp)
	f.status, f.header, f.body, f.peer = resp.StatusCode, resp.Header, raw, peer
}
