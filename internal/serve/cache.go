package serve

import (
	"strconv"
	"sync"

	"repro/internal/lru"
)

// The design cache memoizes complete synthesis responses, not just parsed
// front-end artifacts: a repeat submission of the same (source, options,
// artifact selection) is served in O(lookup), skipping the production
// engine entirely. Entries store the fully rendered JSON body, which makes
// cache hits byte-identical to the miss that populated them; hit/miss is
// reported out of band in the X-DAAD-Cache response header.
//
// Soundness rests on two facts pinned by tests elsewhere: the response
// body (without timings) is a pure function of (source, options), and
// flow.Options.Key never collides for distinct option sets. Requests
// whose options are not canonicalizable (impossible via the wire types,
// which exclude trace writers and extra rules) must not reach the cache.
//
// The cache deduplicates requests separated in time; the in-flight table
// (flights) deduplicates concurrent ones under the same key.

// DefaultDesignCacheEntries bounds the design cache when Config leaves it 0.
const DefaultDesignCacheEntries = 512

// newDesignCache builds the bounded LRU from request key to rendered
// response body. entries follows Config.CacheEntries: 0 selects
// DefaultDesignCacheEntries, and a negative value disables the cache.
func newDesignCache(entries int) *lru.Cache[string, []byte] {
	switch {
	case entries == 0:
		entries = DefaultDesignCacheEntries
	case entries < 0:
		entries = 0 // disabled: handlers never consult a zero-cap cache
	}
	return lru.New[string, []byte](entries)
}

// designKey is the cache identity of a synthesize request: its explain
// key (content hash of the source and canonical option key), artifact
// selection, and whether timings were requested (timed responses differ
// run to run, so they only ever hit an entry stored by an identical timed
// request). It extends the explain key rather than hashing and keying
// again.
func designKey(ekey string, art ArtifactRequest, timings bool) string {
	return ekey + "|" + art.key() + "|t=" + strconv.FormatBool(timings)
}

// flight is one computation of a cached job in progress. Requests for its
// key that arrive meanwhile wait on done instead of computing again.
type flight struct {
	done chan struct{}
	body []byte // the leader's response body, nil when it failed; final once done closes
}

// flights indexes the computations in progress by job key.
type flights struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the flight computing key and whether the caller leads it:
// the first caller for a key creates the flight and must finish it.
func (fs *flights) join(key string) (*flight, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.m[key]; ok {
		return f, false
	}
	if fs.m == nil {
		fs.m = map[string]*flight{}
	}
	f := &flight{done: make(chan struct{})}
	fs.m[key] = f
	return f, true
}

// finish retires the leader's flight and releases its followers with
// body. The leader stores a success in the design cache first, so a
// request that arrives after the retirement finds it there.
func (fs *flights) finish(key string, f *flight, body []byte) {
	fs.mu.Lock()
	delete(fs.m, key)
	fs.mu.Unlock()
	f.body = body
	close(f.done)
}
