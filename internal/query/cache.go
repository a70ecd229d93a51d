package query

import (
	"container/list"
	"sync"

	"dcert/internal/obs"
)

// ResponseCache is the SP's idempotent-response cache: a byte-bounded LRU
// with singleflight collapsing. It replaces the earlier fixed-entry FIFO,
// which had two serving-plane problems: entry-count bounds let a few huge
// proofs pin unbounded memory, and concurrent identical requests each
// recomputed the proof. Here the budget is bytes (key + response, honest
// accounting), eviction is least-recently-used so hot keys survive churn,
// and a cold key being computed parks identical callers on the first
// caller's flight instead of duplicating the work.
//
// ResponseCache is safe for concurrent use.
type ResponseCache struct {
	mu       sync.Mutex
	maxBytes int
	curBytes int
	lru      *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight
	met      cacheObs
	gen      uint64 // bumped by Reset; in-flight results from older gens are not stored

	hitN, missN, collapsedN, evictedN uint64
}

// cacheEntry is one cached response; its cost is len(key)+len(resp).
type cacheEntry struct {
	key  string
	resp []byte
}

// flight is one in-progress computation that identical callers wait on.
type flight struct {
	done chan struct{}
	resp []byte
}

// CacheOutcome describes how Do satisfied a request.
type CacheOutcome int

const (
	// CacheComputed: this caller ran the computation.
	CacheComputed CacheOutcome = iota
	// CacheHit: the response was already cached.
	CacheHit
	// CacheCollapsed: an identical computation was in flight; this caller
	// waited on it instead of recomputing.
	CacheCollapsed
)

// DefaultCacheBytes is the default response-cache budget.
const DefaultCacheBytes = 4 << 20

// NewResponseCache creates a cache bounded to maxBytes of key+response
// payload (minimum 1; a non-positive value falls back to the default).
func NewResponseCache(maxBytes int) *ResponseCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &ResponseCache{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Do returns the response for key, computing it at most once across all
// concurrent callers: a cached response is returned immediately (and
// refreshed in LRU order), an in-flight computation is joined, and only a
// cold key runs compute.
func (c *ResponseCache) Do(key string, compute func() []byte) ([]byte, CacheOutcome) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		resp := el.Value.(*cacheEntry).resp
		c.hitN++
		c.met.hits.Inc()
		c.mu.Unlock()
		return resp, CacheHit
	}
	if f, ok := c.inflight[key]; ok {
		// Counted on joining, so Stats sees a waiter while it waits.
		c.collapsedN++
		c.mu.Unlock()
		c.met.collapsed.Inc()
		<-f.done
		return f.resp, CacheCollapsed
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.missN++
	c.met.misses.Inc()
	gen := c.gen
	c.mu.Unlock()

	f.resp = compute()

	c.mu.Lock()
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	if c.gen == gen {
		c.insert(key, f.resp)
	}
	c.mu.Unlock()
	close(f.done)
	return f.resp, CacheComputed
}

// Reset empties the cache (cumulative stats survive). Serving planes whose
// responses are only valid at one height call this on every height advance:
// a proof cached against the old root must not be replayed once clients
// hold the new certified header. Computations already in flight when Reset
// runs still answer their waiting callers, but their results are not stored
// into the fresh generation.
func (c *ResponseCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.lru.Init()
	c.entries = make(map[string]*list.Element)
	c.curBytes = 0
	c.met.bytes.Set(0)
	c.met.entriesN.Set(0)
}

// Get returns the cached response for key without computing.
func (c *ResponseCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hitN++
	c.met.hits.Inc()
	return el.Value.(*cacheEntry).resp, true
}

// insert stores a response and evicts LRU entries past the byte budget.
// Callers hold c.mu.
func (c *ResponseCache) insert(key string, resp []byte) {
	if _, ok := c.entries[key]; ok {
		return
	}
	cost := len(key) + len(resp)
	if cost > c.maxBytes {
		return // larger than the whole budget: serve it, never cache it
	}
	for c.curBytes+cost > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, ev.key)
		c.curBytes -= len(ev.key) + len(ev.resp)
		c.evictedN++
		c.met.evictions.Inc()
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, resp: resp})
	c.curBytes += cost
	c.met.bytes.Set(int64(c.curBytes))
	c.met.entriesN.Set(int64(len(c.entries)))
}

// Bytes reports the cached payload size (keys + responses).
func (c *ResponseCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

// Len reports the number of cached responses.
func (c *ResponseCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats reports cumulative cache outcomes since creation.
func (c *ResponseCache) Stats() (hits, misses, collapsed, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitN, c.missN, c.collapsedN, c.evictedN
}

// cacheObs bundles the cache instruments (nil-safe until Instrument).
type cacheObs struct {
	hits      *obs.Counter
	misses    *obs.Counter
	collapsed *obs.Counter
	evictions *obs.Counter
	bytes     *obs.Gauge
	entriesN  *obs.Gauge
}

// Instrument attaches the cache to a metrics registry under an SP identity.
func (c *ResponseCache) Instrument(reg *obs.Registry, id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met = cacheObs{
		hits: reg.Counter("dcert_sp_cache_outcomes_total",
			"Response cache lookups by outcome.", obs.L("sp", id), obs.L("outcome", "hit")),
		misses: reg.Counter("dcert_sp_cache_outcomes_total",
			"Response cache lookups by outcome.", obs.L("sp", id), obs.L("outcome", "miss")),
		collapsed: reg.Counter("dcert_sp_cache_outcomes_total",
			"Response cache lookups by outcome.", obs.L("sp", id), obs.L("outcome", "collapsed")),
		evictions: reg.Counter("dcert_sp_cache_evictions_total",
			"Responses evicted to stay inside the byte budget.", obs.L("sp", id)),
		bytes: reg.Gauge("dcert_sp_cache_bytes",
			"Bytes of cached responses (keys + payloads).", obs.L("sp", id)),
		entriesN: reg.Gauge("dcert_sp_cache_entries",
			"Cached responses.", obs.L("sp", id)),
	}
}
