package service

import (
	"container/list"
	"sync"

	"queuemachine/internal/pe"
)

// CacheStats is a point-in-time snapshot of the program cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// programCache is the memory tier: a content-addressed LRU of run-ready
// programs, keyed by compile.Fingerprint. Whichever tier produced a
// program — a local compile, the disk tier or a peer — it passes one
// check on the way in, pe.LoadProgram, which validates the object and
// decodes its instruction streams once for every later run. The
// simulator only reads a loaded program, so one cached entry backs any
// number of concurrent runs and a hit never decodes again. The
// compiler's front-end structures (AST, IFT, graph info, assembly text)
// are not kept: only the object program and its decoded streams are
// needed to answer a compile or a run.
type programCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // fingerprint → element holding *cacheEntry

	hits, misses, evictions int64
}

type cacheEntry struct {
	key  string
	prog *pe.Program
}

func newProgramCache(capacity int) *programCache {
	if capacity < 1 {
		capacity = 1
	}
	return &programCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the cached program for key, promoting it to most recently
// used. Every call counts as a hit or a miss.
func (c *programCache) get(key string) (*pe.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).prog, true
}

// peek is get without miss accounting: a present entry counts as a hit
// and is promoted, an absent one counts nothing. The compile fast path
// uses it so that n coalescing requests record one miss (the flight
// leader's), not n — a coalesced follower never consulted the cache and
// must not be charged to it.
func (c *programCache) peek(key string) (*pe.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).prog, true
}

// add inserts (or refreshes) a program, evicting the least recently used
// entry when the cache is full. Concurrent compiles of the same source may
// both add; the second add is a refresh, not an eviction.
func (c *programCache) add(key string, prog *pe.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).prog = prog
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, prog: prog})
	for len(c.items) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

func (c *programCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.items),
		Capacity:  c.cap,
	}
}
