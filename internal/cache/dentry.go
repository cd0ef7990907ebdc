package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// DentryCache maps (parent inode, name) pairs to child inode numbers so the
// base filesystem can resolve hot paths without scanning directory blocks.
// It also caches negative entries (name known absent), like the Linux
// dcache. The shadow deliberately has no equivalent: it "always performs
// path lookup from the root inode and scans the directory entries" (§3.3).
type DentryCache struct {
	mu      sync.RWMutex
	entries map[dentryKey]dentryVal
	max     int
	// hits and misses are atomics so a lookup needs only the read lock.
	hits, misses atomic.Int64

	telHits, telMisses *telemetry.Counter
}

// SetTelemetry installs hit/miss counters ("cache.dentry.*") from s.
func (c *DentryCache) SetTelemetry(s *telemetry.Sink) {
	if s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.telHits = s.Counter("cache.dentry.hits")
	c.telMisses = s.Counter("cache.dentry.misses")
}

type dentryKey struct {
	parent uint32
	name   string
}

type dentryVal struct {
	ino      uint32
	negative bool
}

// NewDentryCache creates a dentry cache bounded at max entries; at the bound
// the whole map is dropped (cheap wholesale invalidation, as real dcaches do
// under pressure).
func NewDentryCache(max int) *DentryCache {
	if max < 16 {
		max = 16
	}
	return &DentryCache{entries: make(map[dentryKey]dentryVal), max: max}
}

// Lookup returns the cached child ino for (parent, name). found reports a
// cache hit; negative reports a cached absence.
func (c *DentryCache) Lookup(parent uint32, name string) (ino uint32, negative, found bool) {
	c.mu.RLock()
	v, ok := c.entries[dentryKey{parent, name}]
	if ok {
		c.hits.Add(1)
		c.telHits.Inc()
	} else {
		c.misses.Add(1)
		c.telMisses.Inc()
	}
	c.mu.RUnlock()
	if !ok {
		return 0, false, false
	}
	return v.ino, v.negative, true
}

// Add caches a positive mapping.
func (c *DentryCache) Add(parent uint32, name string, ino uint32) {
	c.add(parent, name, dentryVal{ino: ino})
}

// AddNegative caches the absence of a name.
func (c *DentryCache) AddNegative(parent uint32, name string) {
	c.add(parent, name, dentryVal{negative: true})
}

func (c *DentryCache) add(parent uint32, name string, v dentryVal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.max {
		c.entries = make(map[dentryKey]dentryVal)
	}
	c.entries[dentryKey{parent, name}] = v
}

// Invalidate removes a single mapping (after unlink, rename, rmdir, or
// create over a negative entry).
func (c *DentryCache) Invalidate(parent uint32, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, dentryKey{parent, name})
}

// InvalidateDir removes every mapping under one parent directory.
func (c *DentryCache) InvalidateDir(parent uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if k.parent == parent {
			delete(c.entries, k)
		}
	}
}

// Purge empties the cache (contained reboot).
func (c *DentryCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[dentryKey]dentryVal)
}

// Len returns the number of cached entries.
func (c *DentryCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// HitRate returns hits and misses since creation.
func (c *DentryCache) HitRate() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
