package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Client is the one wire client of the system: cmd/daa's -remote mode and
// the coordinator's peer-forwarding both ride it. It retries idempotent
// requests whose transport failed before any response arrived — bounded
// exponential backoff with jitter — and optionally honors Retry-After on
// 429 load shedding. Every daemon call is safe to repeat: synthesize and
// lint are cache-keyed pure computations, explain/healthz/metrics are
// GETs; nothing in the API mutates.
type Client struct {
	cfg ClientConfig

	mu  sync.Mutex
	rng *rand.Rand // jitter source, guarded by mu
}

// ClientConfig tunes the retry policy. The zero value behaves like the
// historical daa -remote client: one retry after a flat 200ms pause.
type ClientConfig struct {
	// HTTP is the underlying transport client (default http.DefaultClient).
	HTTP *http.Client
	// Attempts bounds total tries per request, the first included
	// (default 2 — the single retry).
	Attempts int
	// BaseBackoff is the pause before the first retry (default 200ms);
	// each further retry doubles it, up to maxBackoff.
	BaseBackoff time.Duration
	// JitterSeed seeds the backoff jitter so tests can pin it
	// (default: a process-unique seed).
	JitterSeed int64
	// Honor429 spends one extra attempt when the server sheds load with
	// 429 + Retry-After, sleeping the advertised delay (at most
	// max429Wait) before retrying. Off, the 429 response is returned to the
	// caller with its Retry-After intact — the coordinator's choice, which
	// forwards the header to its own caller instead of re-hammering an
	// overloaded shard.
	Honor429 bool
}

const (
	// maxBackoff caps the doubling retry pause.
	maxBackoff = 2 * time.Second
	// max429Wait caps an honored Retry-After delay: a 429 advertising a
	// longer wait is returned, not retried.
	max429Wait = 2 * time.Second
)

func (c ClientConfig) withDefaults() ClientConfig {
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	if c.Attempts <= 0 {
		c.Attempts = 2
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 200 * time.Millisecond
	}
	return c
}

// NewClient builds a Client (zero config fine).
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// CloseIdleConnections releases the transport's pooled connections.
// Coordinator shutdown calls it so draining workers are not left waiting
// on never-used keep-alive sockets (a dial race can park one in the
// worker's server as StateNew, which its Shutdown only reaps after
// several seconds).
func (c *Client) CloseIdleConnections() { c.cfg.HTTP.CloseIdleConnections() }

// Do issues the idempotent request built by mk, retrying transient
// transport failures (connection refused or reset, socket dropped before
// any response bytes) up to the attempt bound, with backoff + jitter
// between tries. mk is called once per attempt because a consumed request
// body cannot be resent. Served HTTP errors are results, not failures —
// they are returned, never retried — except a 429 under Honor429, which
// gets one extra attempt after the advertised Retry-After.
func (c *Client) Do(ctx context.Context, mk func() (*http.Request, error)) (*http.Response, error) {
	var lastErr error
	honored429 := false
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt-1)); err != nil {
				return nil, err
			}
		}
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := c.cfg.HTTP.Do(req.WithContext(ctx))
		switch {
		case err == nil && resp.StatusCode == http.StatusTooManyRequests &&
			c.cfg.Honor429 && !honored429:
			wait, ok := retryAfter(resp)
			if !ok || wait > max429Wait {
				return resp, nil // shed too hard to wait out; surface it
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			honored429 = true
			attempt-- // the shed attempt rides the Retry-After, not the bound
			if err := c.sleep(ctx, wait); err != nil {
				return nil, err
			}
			lastErr = errors.New("429 shed after honored Retry-After")
			continue
		case err == nil || !TransientConnErr(err):
			return resp, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// Send is Do for a request built from method, url and body; a non-nil
// body is sent as JSON.
func (c *Client) Send(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	return c.Do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	})
}

// backoff computes the pause before retry number n (0-based): base·2ⁿ
// capped at maxBackoff, plus up to 50% jitter so a burst of failed
// clients does not retry in lockstep.
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.BaseBackoff << uint(n)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d + j
}

// sleep waits d or until ctx is done.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter parses a delay-seconds Retry-After header. HTTP-date forms
// are ignored (the daemon only emits seconds).
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// TransientConnErr reports whether err is a connection-level failure with
// no response behind it — the only failures worth retrying (or failing
// over) for an idempotent request: the server cannot have half-applied
// anything it never answered, and the API has nothing to half-apply.
func TransientConnErr(err error) bool {
	var ue *url.Error
	if !errors.As(err, &ue) {
		return false
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE)
}
