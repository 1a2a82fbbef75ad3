// Package lru is the bounded least-recently-used map behind the process's
// result caches: flow's front-end artifact cache, and serve's design cache
// and explain store. A Cache owns its recency list, its index, and its
// hit/miss/eviction counters, all under one mutex.
package lru

import "sync"

// Stats is a point-in-time snapshot of a cache's size and counters.
type Stats struct {
	Entries   int   `json:"entries"`   // entries currently cached
	Cap       int   `json:"cap"`       // entry bound
	Hits      int64 `json:"hits"`      // lookups served from the cache
	Misses    int64 `json:"misses"`    // lookups that found nothing
	Evictions int64 `json:"evictions"` // entries dropped by the bound
}

// Cache is a bounded LRU map from K to V, safe for concurrent use. Build
// one with New; a Cache must not be copied.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	root  node[K, V] // list sentinel: root.next is the most recent entry
	index map[K]*node[K, V]

	hits, misses, evictions int64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty cache holding at most capacity entries. A cache
// of capacity 0 keeps nothing: every insert is evicted at once.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: capacity}
	c.clear()
	return c
}

// Get returns the value stored under k and marks it most recently used,
// counting a hit; an absent key counts a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.index[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(n)
	return n.val, true
}

// GetOrAdd returns the value stored under k, counting a hit, or stores
// and returns mk(), counting a miss. Lookup and insert happen under one
// lock, so concurrent callers for one new key all receive the same value.
func (c *Cache[K, V]) GetOrAdd(k K, mk func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.index[k]; ok {
		c.hits++
		c.moveToFront(n)
		return n.val
	}
	c.misses++
	v := mk()
	c.insert(k, v)
	return v
}

// Put stores v under k as the most recently used entry. An existing entry
// is refreshed in place; a new one evicts past the bound. Put counts
// neither a hit nor a miss.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.index[k]; ok {
		n.val = v
		c.moveToFront(n)
		return
	}
	c.insert(k, v)
}

// Cap reports the entry bound.
func (c *Cache[K, V]) Cap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// SetCap rebounds the cache to n entries, evicting the least recently
// used ones at once if it holds more.
func (c *Cache[K, V]) SetCap(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	c.trim()
}

// Reset drops every entry and zeroes the counters; the bound is kept.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clear()
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// Stats snapshots the cache's size and counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.index),
		Cap:       c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

func (c *Cache[K, V]) clear() {
	c.root.next, c.root.prev = &c.root, &c.root
	c.index = map[K]*node[K, V]{}
}

func (c *Cache[K, V]) insert(k K, v V) {
	n := &node[K, V]{key: k, val: v}
	c.index[k] = n
	c.pushFront(n)
	c.trim()
}

// trim evicts least-recently-used entries until the bound holds.
func (c *Cache[K, V]) trim() {
	for len(c.index) > c.cap {
		n := c.root.prev
		c.unlink(n)
		delete(c.index, n.key)
		c.evictions++
	}
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next = n
	n.next.prev = n
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

func (c *Cache[K, V]) moveToFront(n *node[K, V]) {
	c.unlink(n)
	c.pushFront(n)
}
