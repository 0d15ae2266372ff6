package renewal

import (
	"math"
	"sort"
	"strconv"
	"sync"

	"github.com/cnfet/yieldlab/internal/dist"
)

// SweepCache shares renewal Models — and therefore their swept count
// tables — between callers whose spacing law and grid coincide. The paper's
// three Fig. 2.1 process corners, the Table 1/Table 2 scenarios and every
// Wmin search differ only in the per-CNT failure probability pf, which
// enters after the count distribution (Eq. 2.2 evaluates the PGF at pf), so
// one swept table serves them all; the cache makes that sharing automatic
// wherever models are built, not just where one happens to be threaded
// through by hand.
//
// Keys combine the law's dist.Fingerprint with every Model option that
// affects the numbers (grid step, max width, tail epsilon, initial
// condition), so a cache hit can never change a result.
// Laws without a fingerprint get a fresh model each call.
//
// A SweepCache is safe for concurrent use. Models fill their internal width
// table with one canonical full-grid sweep and are themselves
// concurrency-safe, so handing one model to many goroutines is the intended
// use. Long-lived servers should
// bound the cache with SetMaxEntries: eviction drops the least-recently-used
// model from the cache (callers holding it keep a valid model; only the
// sharing is forgotten).
type SweepCache struct {
	mu         sync.Mutex
	entries    map[string]*cacheEntry
	maxEntries int
	clock      uint64
	hits       uint64
	misses     uint64
	evictions  uint64
	// evictedSweeps carries the sweep counts of evicted models, so Stats'
	// sweep total never goes backwards.
	evictedSweeps uint64
}

type cacheEntry struct {
	model *Model
	fp    string // the law's dist.Fingerprint (without grid options)
	use   uint64 // logical last-use time for LRU eviction
}

// NewSweepCache returns an empty, unbounded cache.
func NewSweepCache() *SweepCache {
	return &SweepCache{entries: make(map[string]*cacheEntry)}
}

// SetMaxEntries bounds the cache to at most n models, evicting the least
// recently used beyond that. n ≤ 0 removes the bound. Shrinking below the
// current size evicts immediately.
func (c *SweepCache) SetMaxEntries(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxEntries = n
	c.evictOverLimit()
}

// evictOverLimit drops least-recently-used entries until the bound holds.
// Caller holds c.mu.
func (c *SweepCache) evictOverLimit() {
	if c.maxEntries <= 0 {
		return
	}
	for len(c.entries) > c.maxEntries {
		var oldestKey string
		oldestUse := uint64(math.MaxUint64)
		for key, e := range c.entries {
			if e.use < oldestUse {
				oldestUse = e.use
				oldestKey = key
			}
		}
		c.evictedSweeps += c.entries[oldestKey].model.Sweeps()
		delete(c.entries, oldestKey)
		c.evictions++
	}
}

// Model returns the shared count model for the law and options, building it
// on first use. Passing a nil *SweepCache is allowed and degrades to
// renewal.New.
func (c *SweepCache) Model(spacing dist.Continuous, opts ...Option) (*Model, error) {
	m, _, err := c.ModelTracked(spacing, opts...)
	return m, err
}

// ModelTracked is Model with the cache outcome made visible: hit reports
// whether the model came from the cache. A fresh build, an unfingerprinted
// law and the nil-cache degradation all report false. The query layer's
// sweep spans use this to classify evaluations cold vs cache-hit without
// diffing global cache stats (which would race under concurrent requests).
func (c *SweepCache) ModelTracked(spacing dist.Continuous, opts ...Option) (m *Model, hit bool, err error) {
	if c == nil {
		m, err = New(spacing, opts...)
		return m, false, err
	}
	m, err = newConfigured(spacing, opts...)
	if err != nil {
		return nil, false, err
	}
	fp, ok := dist.Fingerprint(spacing)
	if !ok {
		m.finish()
		return m, false, nil
	}
	key := cacheKey(fp, m)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if e, ok := c.entries[key]; ok {
		c.hits++
		e.use = c.clock
		return e.model, true, nil
	}
	c.misses++
	// Discretization runs under the lock: it is far cheaper than the sweeps
	// the cache exists to share, and holding the lock keeps concurrent
	// first-callers from building duplicate models.
	m.finish()
	c.entries[key] = &cacheEntry{model: m, fp: fp, use: c.clock}
	c.evictOverLimit()
	return m, false, nil
}

// identityKey formats the full identity of a law+grid combination: the law
// fingerprint plus every numerically relevant option, floats compared by
// exact bits. Both the cache key and Snapshot.Key (hence the sweep store's
// file naming) derive from this one format, so they cannot drift apart.
func identityKey(fp string, step, maxWidth, tailEps float64, ordinary bool) string {
	b := make([]byte, 0, len(fp)+96)
	b = append(b, fp...)
	b = dist.AppendHexBits(append(b, "|step="...), step)
	b = dist.AppendHexBits(append(b, "|max="...), maxWidth)
	b = dist.AppendHexBits(append(b, "|eps="...), tailEps)
	b = strconv.AppendBool(append(b, "|ord="...), ordinary)
	return string(b)
}

// cacheKey derives the cache identity of a configured (not necessarily
// discretized) model.
func cacheKey(fp string, m *Model) string {
	return identityKey(fp, m.step, m.maxWidth, m.tailEps, m.ordinary)
}

// Len returns the number of distinct models currently cached.
func (c *SweepCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CacheStats describes a SweepCache's traffic and contents.
type CacheStats struct {
	// Hits and Misses count Model calls served from the cache vs built
	// fresh. Unfingerprinted laws count as neither.
	Hits, Misses uint64
	// Evictions counts models dropped by the entry bound.
	Evictions uint64
	// Entries is the current model count (== Len()).
	Entries int
	// Sweeps totals the arrival sweeps actually computed by every model
	// the cache has held, evicted ones included (counted up to their
	// eviction), so it never decreases — zero after a warm start that
	// answered only from restored tables, which is how tests and /v1/stats
	// verify the persistent store did its job, and a reliable "something
	// new was swept" signal for checkpointing.
	Sweeps uint64
}

// snapshotLocked returns the cached entries in ascending cache-key order —
// law fingerprint first, then the grid options — so every traversal of the
// cache is deterministic regardless of map iteration order. Caller holds
// c.mu.
func (c *SweepCache) snapshotLocked() []*cacheEntry {
	keys := make([]string, 0, len(c.entries))
	for key := range c.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	snapshot := make([]*cacheEntry, len(keys))
	for i, key := range keys {
		snapshot[i] = c.entries[key]
	}
	return snapshot
}

// Stats returns a snapshot of the cache's counters.
func (c *SweepCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Model sweep counters are atomics, so reading them under the cache
	// lock cannot stall behind a running sweep, and the total is consistent
	// with concurrent evictions.
	s := CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.entries),
		Sweeps: c.evictedSweeps}
	for _, e := range c.entries {
		s.Sweeps += e.model.Sweeps()
	}
	return s
}

// ForEach calls fn for every cached model with its law fingerprint, in
// ascending cache-key order (law fingerprint, then grid options), so that
// persistence and /v1/stats traffic do not depend on map iteration order.
// The callback runs outside the cache lock, so it may sweep, snapshot, or
// call back into the cache.
func (c *SweepCache) ForEach(fn func(fingerprint string, m *Model)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	snapshot := c.snapshotLocked()
	c.mu.Unlock()
	for _, e := range snapshot {
		fn(e.fp, e.model)
	}
}
