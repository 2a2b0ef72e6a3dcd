package service

import (
	"container/list"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/hotspot"
)

// CachedModel is a compiled thermal model held by the cache, together with
// a pool of per-goroutine simulation sessions and the block index its
// replies encode with. Sessions carry a grown solve workspace and a memo of
// their last steady power map, so a request served from a warm cache entry
// skips the model compile, and a repeated steady request skips the solve.
// The backward-Euler factors live on the model's solver and are shared by
// every session. The block index lives and dies with the entry.
type CachedModel struct {
	Model       *hotspot.Model
	Fingerprint string
	sessions    sync.Pool
	blocks      *blockIndex
}

// Session borrows a simulation session for this model; return it with
// Release so later requests reuse its workspace and memo.
func (cm *CachedModel) Session() *hotspot.Session {
	if v := cm.sessions.Get(); v != nil {
		return v.(*hotspot.Session)
	}
	return cm.Model.NewSession()
}

// Release returns a session to the pool.
func (cm *CachedModel) Release(se *hotspot.Session) { cm.sessions.Put(se) }

// CacheStats is a snapshot of cache counters.
type CacheStats struct {
	Size int `json:"size"`
	Cap  int `json:"cap"`
	// Hits counts requests served by an existing entry, including requests
	// that attached to a compile already in flight (also counted in Shared).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Compiles counts successful model builds; exactly one per fingerprint
	// while the entry stays resident (single-flight).
	Compiles      int64 `json:"compiles"`
	CompileErrors int64 `json:"compile_errors"`
	Evictions     int64 `json:"evictions"`
	// Shared counts requests that waited on another request's compile
	// instead of compiling themselves.
	Shared int64 `json:"shared"`
}

// ModelCache is a concurrency-safe LRU cache of compiled thermal models
// keyed by config fingerprint, with single-flight compilation: any number
// of concurrent requests for the same fingerprint share one hotspot.New.
// Failed builds are not cached (the error is returned to every waiter and
// the key becomes buildable again). A build that panics fails the same
// way, with an error answered 500.
type ModelCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // of *cacheEntry, front = most recently used
	entries map[string]*cacheEntry
	stats   CacheStats
}

type cacheEntry struct {
	key   string
	elem  *list.Element // nil while the build is in flight
	ready chan struct{}
	cm    *CachedModel
	err   error
}

// NewModelCache creates a cache holding at most capacity compiled models
// (minimum 1).
func NewModelCache(capacity int) *ModelCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ModelCache{cap: capacity, ll: list.New(), entries: make(map[string]*cacheEntry)}
}

// Get returns the cached model for key, building it with build on a miss.
// The second return reports whether the request was a cache hit (an
// in-flight build another request started counts as a hit). Evicted or
// failed entries rebuild on the next Get.
func (c *ModelCache) Get(key string, build func() (*hotspot.Model, error)) (*CachedModel, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		inFlight := e.elem == nil
		if !inFlight {
			c.ll.MoveToFront(e.elem)
		}
		c.stats.Hits++
		if inFlight {
			c.stats.Shared++
		}
		c.mu.Unlock()
		<-e.ready
		return e.cm, true, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.mu.Unlock()

	cm, err := compile(key, build)

	c.mu.Lock()
	if err != nil {
		c.stats.CompileErrors++
		e.err = err
		delete(c.entries, key) // failures are not cached
	} else {
		c.stats.Compiles++
		e.cm = cm
		e.elem = c.ll.PushFront(e)
		for c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			victim := oldest.Value.(*cacheEntry)
			c.ll.Remove(oldest)
			delete(c.entries, victim.key)
			c.stats.Evictions++
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.cm, false, e.err
}

// compile runs a build outside the cache lock and indexes the model's
// blocks. A panicking build becomes a 500 error: the waiters on its entry
// must be released and the key left buildable, not wedged in flight.
func compile(key string, build func() (*hotspot.Model, error)) (cm *CachedModel, err error) {
	defer func() {
		if r := recover(); r != nil {
			cm, err = nil, withStatus(http.StatusInternalServerError, fmt.Errorf("model build panicked: %v", r))
		}
	}()
	m, err := build()
	if err != nil {
		return nil, err
	}
	return &CachedModel{Model: m, Fingerprint: key, blocks: newBlockIndex(m.Floorplan())}, nil
}

// Stats returns a snapshot of the cache counters.
func (c *ModelCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.ll.Len()
	s.Cap = c.cap
	return s
}

// Len returns the number of resident entries.
func (c *ModelCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Models snapshots the resident cached models, most recently used first.
// Used by the stats endpoint to aggregate per-model solver counters.
func (c *ModelCache) Models() []*CachedModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*CachedModel, 0, c.ll.Len())
	for e := c.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*cacheEntry).cm)
	}
	return out
}
