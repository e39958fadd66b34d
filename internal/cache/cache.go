package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultMaxEntries bounds the cache when Config.MaxEntries is unset.
const DefaultMaxEntries = 4096

// slotBytes is the unit of the cache bound: an entry whose signature and
// picks take b bytes holds ⌈b/slotBytes⌉ of the MaxEntries slots.
const slotBytes = 4096

// Config configures a Cache.
type Config struct {
	// MaxEntries bounds the cache's memory in slotBytes slots: an entry
	// holds one slot per started 4 KiB of its signature and picks, and
	// least-recently-used entries are evicted while the slots in use exceed
	// the bound. Entries under 4 KiB — every component of a typical /solve
	// body — hold one slot each, so the bound is then an entry count. An
	// entry larger than the whole bound is not stored. Zero or negative
	// means DefaultMaxEntries.
	MaxEntries int
	// Metrics, when non-nil, receives the cache's counters and gauges:
	// mc3_cache_hits_total, mc3_cache_misses_total,
	// mc3_cache_evictions_total, and mc3_cache_entries. All obs.Registry
	// methods are nil-safe, so leaving this unset costs nothing.
	Metrics *obs.Registry
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits counts lookups answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts lookups that found no entry.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached component solutions.
	Entries int `json:"entries"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// entry is one cached component solution on the LRU list.
type entry struct {
	key        string
	picks      []int32 // canonical local classifier indices
	slots      int     // share of the bound: see entrySlots
	prev, next *entry
}

// entrySlots returns the number of slotBytes slots an entry with a
// signature of keyLen bytes and these picks holds.
func entrySlots(keyLen int, picks []int32) int {
	b := keyLen + 4*len(picks)
	return max(1, (b+slotBytes-1)/slotBytes)
}

// Cache is a concurrency-safe, bounded LRU memoization of component
// solutions. The zero value is not usable; construct with New. All methods
// are safe for concurrent use and no-ops on a nil receiver, so solvers can
// thread an optional cache without branching.
type Cache struct {
	max     int
	metrics *obs.Registry
	// The metric handles, each looked up in metrics at its first use, so
	// /metrics lists a series once the cache has counted into it.
	hitsM, missesM, evictionsM atomic.Pointer[obs.Counter]
	entriesM                   atomic.Pointer[obs.Gauge]

	hits, misses, evictions atomic.Int64

	mu         sync.Mutex
	entries    map[string]*entry
	used       int    // slots held by all entries
	head, tail *entry // LRU list: head = most recent, tail = next to evict
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	max := cfg.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Cache{
		max:     max,
		metrics: cfg.Metrics,
		entries: make(map[string]*entry),
	}
}

// counter returns the counter h holds, looking it up by name first.
func (c *Cache) counter(h *atomic.Pointer[obs.Counter], name string) *obs.Counter {
	m := h.Load()
	if m == nil {
		m = c.metrics.Counter(name)
		h.Store(m)
	}
	return m
}

// entriesGauge returns the mc3_cache_entries gauge.
func (c *Cache) entriesGauge() *obs.Gauge {
	m := c.entriesM.Load()
	if m == nil {
		m = c.metrics.Gauge("mc3_cache_entries")
		c.entriesM.Store(m)
	}
	return m
}

// Lookup returns the cached solution for k, translated into the classifier
// IDs of the component k was built from, and whether it was found. The
// returned slice is freshly allocated and owned by the caller.
func (c *Cache) Lookup(k Key) ([]core.ClassifierID, bool) {
	if c == nil || !k.Valid() {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[string(k.buf)]
	if ok {
		c.moveToFront(e)
	}
	var picks []int32
	if ok {
		picks = e.picks
	}
	c.mu.Unlock()

	if !ok {
		c.misses.Add(1)
		c.counter(&c.missesM, "mc3_cache_misses_total").Inc()
		return nil, false
	}
	out := make([]core.ClassifierID, len(picks))
	for i, li := range picks {
		// Equal signatures imply identical classifier enumerations, so every
		// stored local index is in range; guard anyway rather than panic on a
		// (theoretically impossible) mismatch.
		if int(li) >= len(k.globals) {
			c.misses.Add(1)
			c.counter(&c.missesM, "mc3_cache_misses_total").Inc()
			return nil, false
		}
		out[i] = k.globals[li]
	}
	c.hits.Add(1)
	c.counter(&c.hitsM, "mc3_cache_hits_total").Inc()
	return out, true
}

// Store records picks (instance classifier IDs) as the solution of the
// component k was built from, copying k's signature when it adds an entry.
// Picks outside the component's classifier enumeration make the store a
// no-op (they cannot be canonicalized); that never happens for solutions
// produced by the solvers.
func (c *Cache) Store(k Key, picks []core.ClassifierID) {
	if c == nil || !k.Valid() {
		return
	}
	enc, ok := k.encode(picks)
	if !ok {
		return
	}

	slots := entrySlots(len(k.buf), enc)
	if slots > c.max {
		return
	}

	c.mu.Lock()
	e, ok := c.entries[string(k.buf)]
	if ok {
		// Deterministic solvers re-derive the same solution; keep the fresh
		// one and refresh recency.
		c.used += slots - e.slots
		e.picks, e.slots = enc, slots
		c.moveToFront(e)
	} else {
		e = &entry{key: string(k.buf), picks: enc, slots: slots}
		c.entries[e.key] = e
		c.used += slots
		c.pushFront(e)
	}
	// e fits the bound on its own, so eviction stops before reaching it.
	var evicted int
	for c.used > c.max {
		c.evictTail()
		evicted++
	}
	n := len(c.entries)
	c.mu.Unlock()

	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		c.counter(&c.evictionsM, "mc3_cache_evictions_total").Add(int64(evicted))
	}
	c.entriesGauge().Set(float64(n))
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// Len returns the current number of entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset drops every entry, keeping the counters.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = make(map[string]*entry)
	c.used = 0
	c.head, c.tail = nil, nil
	c.mu.Unlock()
	c.entriesGauge().Set(0)
}

// pushFront links e as the most-recently-used entry. Callers hold mu.
func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// moveToFront refreshes e's recency. Callers hold mu.
func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	c.pushFront(e)
}

// evictTail drops the least-recently-used entry. Callers hold mu.
func (c *Cache) evictTail() {
	e := c.tail
	if e == nil {
		return
	}
	delete(c.entries, e.key)
	c.used -= e.slots
	c.tail = e.prev
	if c.tail != nil {
		c.tail.next = nil
	} else {
		c.head = nil
	}
	e.prev, e.next = nil, nil
}
