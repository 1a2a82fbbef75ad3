package cluster

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Health-checked membership: every configured peer is probed on a fixed
// interval with GET /v1/healthz?ready=1 — the readiness form, so a
// draining or still-warming worker leaves the ring before its listener
// disappears. A down peer enters the ring on its first successful probe;
// an up peer leaves it after DownAfter consecutive failures, so one lost
// probe does not reshuffle the ring. Transitions rebuild the ring
// copy-on-write: in-flight requests keep the candidate order they looked
// up, so membership changes never drop them.

// Peer names one worker: a stable ID (what the ring hashes and
// X-DAAD-Worker reports) and the base URL requests forward to.
type Peer struct {
	ID  string
	URL string
}

// peerState is one worker's live state inside the coordinator.
type peerState struct {
	id   string
	base string // URL, no trailing slash

	up         atomic.Bool
	consecFail atomic.Int64 // consecutive probe failures (while up)
	probeOK    atomic.Int64 // lifetime probe counters
	probeFail  atomic.Int64

	requests    atomic.Int64 // forwarded requests answered by this peer
	failovers   atomic.Int64 // transport/503 failures that moved past it
	cacheHits   atomic.Int64 // X-DAAD-Cache seen on its responses
	cacheMisses atomic.Int64
}

// probeLoop drives one peer's membership until stop closes or ctx (the
// coordinator's lifecycle, from Start) ends. The first probe fires
// immediately so a freshly booted cluster converges in one round, not one
// interval.
func (co *Coordinator) probeLoop(ctx context.Context, p *peerState) {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.ProbeInterval)
	defer t.Stop()
	for {
		co.probeOnce(ctx, p)
		select {
		case <-co.stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probeOnce runs one readiness probe and applies the thresholds.
func (co *Coordinator) probeOnce(ctx context.Context, p *peerState) {
	ok := co.probePeer(ctx, p)
	if ok {
		p.probeOK.Add(1)
		p.consecFail.Store(0)
		if !p.up.Load() {
			p.up.Store(true)
			co.met.transitions.Add(1)
			co.cfg.Logger.Printf("peer %s (%s) up, rebuilding ring", p.id, p.base)
			co.rebuildRing()
		}
		return
	}
	p.probeFail.Add(1)
	if p.up.Load() && p.consecFail.Add(1) >= int64(co.cfg.DownAfter) {
		p.up.Store(false)
		p.consecFail.Store(0)
		co.met.transitions.Add(1)
		co.cfg.Logger.Printf("peer %s (%s) down, rebuilding ring", p.id, p.base)
		co.rebuildRing()
	}
}

// probePeer issues the readiness probe. Any 200 within the probe timeout
// counts; everything else — refused connection, 503 during drain or
// warmup, a hung accept — is a failure.
func (co *Coordinator) probePeer(ctx context.Context, p *peerState) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/v1/healthz?ready=1", nil)
	if err != nil {
		return false
	}
	resp, err := co.probeClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// rebuildRing recomputes the ring from the peers currently up and swaps
// it in. Membership order does not matter: NewRing sorts.
func (co *Coordinator) rebuildRing() {
	var members []string
	for _, p := range co.peers {
		if p.up.Load() {
			members = append(members, p.id)
		}
	}
	co.ring.Store(NewRing(members))
}
