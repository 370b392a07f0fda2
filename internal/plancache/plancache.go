// Package plancache implements the engine's shared LRU plan cache: built,
// optimized plan templates keyed on normalized statement text, stamped with
// the catalog (DDL) and statistics versions they were built against so a
// racing schema or stats change invalidates them instead of serving a stale
// plan.
package plancache

import (
	"container/list"
	"sync"

	"lambdadb/internal/plan"
)

// DefaultSize is the entry cap used when the engine is opened without an
// explicit plan-cache size.
const DefaultSize = 256

// Entry is one cached plan template plus the metadata needed to validate
// and observe it.
type Entry struct {
	Key      string    // normalized statement text ($N placeholders intact)
	Plan     plan.Node // template; read-only, shared by every execution
	NParams  int       // number of $N placeholders
	DDLVer   uint64    // storage DDL version read before the plan was built
	StatsVer uint64    // statistics version read before the plan was built
	Hits     int64     // lookup hits while cached
}

// Cache is a mutex-guarded LRU map. A size of 0 disables caching entirely
// (every Get misses, every Put is dropped).
type Cache struct {
	mu      sync.Mutex
	size    int
	entries map[string]*list.Element // value: *Entry
	order   *list.List               // front = most recently used

	hits          int64
	misses        int64
	invalidations int64
}

// New builds a cache holding at most size entries.
func New(size int) *Cache {
	if size < 0 {
		size = 0
	}
	return &Cache{
		size:    size,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Outcome classifies a Get: a hit, a plain miss, or an invalidation (the
// key was cached but stamped with stale versions, so the entry was dropped).
type Outcome int

// Get outcomes.
const (
	Hit Outcome = iota
	Miss
	Invalidated
)

// Get returns the entry for key when it exists and was built against the
// given DDL and stats versions. A version mismatch drops the entry and
// reports Invalidated (which is also a miss: the caller must rebuild).
func (c *Cache) Get(key string, ddlVer, statsVer uint64) (*Entry, Outcome) {
	if c == nil {
		return nil, Miss
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, Miss
	}
	e := el.Value.(*Entry)
	if e.DDLVer != ddlVer || e.StatsVer != statsVer {
		c.order.Remove(el)
		delete(c.entries, key)
		c.invalidations++
		c.misses++
		return nil, Invalidated
	}
	c.order.MoveToFront(el)
	e.Hits++
	c.hits++
	return e, Hit
}

// Put inserts or replaces the entry for e.Key, evicting the least recently
// used entry when the cache is full.
func (c *Cache) Put(e *Entry) {
	if c == nil || c.size == 0 || e == nil || e.Key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.Key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.size {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.order.Remove(back)
		delete(c.entries, back.Value.(*Entry).Key)
	}
	c.entries[e.Key] = c.order.PushFront(e)
}

// Invalidate drops every entry whose stamped versions do not match the
// current ones. It is called opportunistically (lookups self-invalidate),
// so the engine only needs it for bulk drops.
func (c *Cache) Invalidate(ddlVer, statsVer uint64) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*Entry)
		if e.DDLVer != ddlVer || e.StatsVer != statsVer {
			c.order.Remove(el)
			delete(c.entries, e.Key)
			n++
		}
		el = next
	}
	c.invalidations += int64(n)
	return n
}

// Snapshot returns the cached entries, most recently used first. The
// returned entries are copies; mutating them does not affect the cache.
func (c *Cache) Snapshot() []Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*Entry))
	}
	return out
}

// Stats returns cumulative hit/miss/invalidation counters and the current
// entry count.
func (c *Cache) Stats() (hits, misses, invalidations int64, entries int) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.invalidations, c.order.Len()
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
