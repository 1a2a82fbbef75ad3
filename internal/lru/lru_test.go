package lru

import (
	"reflect"
	"testing"
)

// order lists the cached keys, most recently used first.
func (c *Cache[K, V]) order() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []K
	for n := c.root.next; n != &c.root; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}

func TestCache(t *testing.T) {
	get := func(t *testing.T, c *Cache[string, int], k string, want int, wantOK bool) {
		t.Helper()
		if v, ok := c.Get(k); v != want || ok != wantOK {
			t.Errorf("Get(%q) = %d, %t; want %d, %t", k, v, ok, want, wantOK)
		}
	}
	cases := []struct {
		name  string
		cap   int
		ops   func(t *testing.T, c *Cache[string, int])
		order []string
		stats Stats
	}{
		{
			name:  "miss",
			cap:   2,
			ops:   func(t *testing.T, c *Cache[string, int]) { get(t, c, "a", 0, false) },
			stats: Stats{Cap: 2, Misses: 1},
		},
		{
			name: "hit",
			cap:  2,
			ops: func(t *testing.T, c *Cache[string, int]) {
				c.Put("a", 1)
				get(t, c, "a", 1, true)
			},
			order: []string{"a"},
			stats: Stats{Entries: 1, Cap: 2, Hits: 1},
		},
		{
			name: "put refreshes in place",
			cap:  2,
			ops: func(t *testing.T, c *Cache[string, int]) {
				c.Put("a", 1)
				c.Put("b", 2)
				c.Put("a", 3)
				get(t, c, "a", 3, true)
			},
			order: []string{"a", "b"},
			stats: Stats{Entries: 2, Cap: 2, Hits: 1},
		},
		{
			name: "get refreshes recency, so the other entry is evicted",
			cap:  2,
			ops: func(t *testing.T, c *Cache[string, int]) {
				c.Put("a", 1)
				c.Put("b", 2)
				get(t, c, "a", 1, true)
				c.Put("c", 3)
				get(t, c, "b", 0, false)
			},
			order: []string{"c", "a"},
			stats: Stats{Entries: 2, Cap: 2, Hits: 1, Misses: 1, Evictions: 1},
		},
		{
			name: "evictions are counted",
			cap:  2,
			ops: func(t *testing.T, c *Cache[string, int]) {
				for i, k := range []string{"a", "b", "c", "d", "e"} {
					c.Put(k, i)
				}
			},
			order: []string{"e", "d"},
			stats: Stats{Entries: 2, Cap: 2, Evictions: 3},
		},
		{
			name: "shrinking evicts at once",
			cap:  4,
			ops: func(t *testing.T, c *Cache[string, int]) {
				for i, k := range []string{"a", "b", "c", "d"} {
					c.Put(k, i)
				}
				c.SetCap(1)
				if got := c.Cap(); got != 1 {
					t.Errorf("Cap() = %d after SetCap(1)", got)
				}
			},
			order: []string{"d"},
			stats: Stats{Entries: 1, Cap: 1, Evictions: 3},
		},
		{
			name: "reset drops entries and zeroes counters, keeping the bound",
			cap:  1,
			ops: func(t *testing.T, c *Cache[string, int]) {
				c.Put("a", 1)
				get(t, c, "a", 1, true)
				get(t, c, "x", 0, false)
				c.Put("b", 2)
				c.Reset()
			},
			stats: Stats{Cap: 1},
		},
		{
			name: "get-or-add builds once",
			cap:  2,
			ops: func(t *testing.T, c *Cache[string, int]) {
				built := 0
				mk := func() int { built++; return 7 }
				for i := 0; i < 3; i++ {
					if v := c.GetOrAdd("a", mk); v != 7 {
						t.Errorf("GetOrAdd = %d, want 7", v)
					}
				}
				if built != 1 {
					t.Errorf("constructor ran %d times, want 1", built)
				}
			},
			order: []string{"a"},
			stats: Stats{Entries: 1, Cap: 2, Hits: 2, Misses: 1},
		},
		{
			name:  "zero capacity keeps nothing",
			cap:   0,
			ops:   func(t *testing.T, c *Cache[string, int]) { c.Put("a", 1) },
			stats: Stats{Evictions: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.cap)
			tc.ops(t, c)
			if got := c.order(); !reflect.DeepEqual(got, tc.order) {
				t.Errorf("recency order %v, want %v", got, tc.order)
			}
			if got := c.Stats(); got != tc.stats {
				t.Errorf("stats %+v, want %+v", got, tc.stats)
			}
		})
	}
}
