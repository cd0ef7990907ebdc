package cache

import (
	"slices"
	"sync"

	"repro/internal/disklayout"
	"repro/internal/telemetry"
)

// CachedInode is the in-memory, decoded form of an on-disk inode plus the
// runtime state the base filesystem tracks for it.
type CachedInode struct {
	// Mu serializes data-path operations on this inode; namespace operations
	// are serialized by the filesystem-wide lock instead.
	Mu sync.Mutex
	// Ino is the inode number.
	Ino uint32
	// Inode is the decoded on-disk record. Guarded by Mu for data fields and
	// by the filesystem lock for namespace fields.
	Inode disklayout.Inode
	// Dirty reports that Inode differs from the table block; see MarkDirty.
	Dirty   bool
	indexed bool // in the cache's dirty set
	// Opens counts open file descriptors referencing this inode; an inode
	// with Nlink==0 is deallocated when Opens drops to zero.
	Opens int
}

// InodeCache caches decoded inodes by number. Clean, unopened inodes are
// evicted wholesale at the bound; dirty or open inodes are pinned by
// definition.
type InodeCache struct {
	mu     sync.Mutex
	inodes map[uint32]*CachedInode
	// dirty lists each dirty cached inode until DirtyInodes finds it clean or gone.
	dirty  []*CachedInode
	max    int
	hits   int64
	misses int64

	telHits, telMisses *telemetry.Counter
}

// SetTelemetry installs hit/miss counters ("cache.inode.*") from s.
func (c *InodeCache) SetTelemetry(s *telemetry.Sink) {
	if s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.telHits = s.Counter("cache.inode.hits")
	c.telMisses = s.Counter("cache.inode.misses")
}

// NewInodeCache creates an inode cache bounded at roughly max clean entries.
func NewInodeCache(max int) *InodeCache {
	if max < 16 {
		max = 16
	}
	return &InodeCache{inodes: make(map[uint32]*CachedInode), max: max}
}

// Get returns the cached inode or nil on a miss. The caller loads misses
// from the buffer cache and inserts with Put.
func (c *InodeCache) Get(ino uint32) *CachedInode {
	c.mu.Lock()
	defer c.mu.Unlock()
	ci := c.inodes[ino]
	if ci != nil {
		c.hits++
		c.telHits.Inc()
	} else {
		c.misses++
		c.telMisses.Inc()
	}
	return ci
}

// Put inserts a decoded inode, returning the winner if another goroutine
// inserted the same number concurrently.
func (c *InodeCache) Put(ci *CachedInode) *CachedInode {
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.inodes[ci.Ino]; ok {
		return existing
	}
	if len(c.inodes) >= c.max {
		c.evictLocked()
	}
	c.inodes[ci.Ino] = ci
	if ci.Dirty && !ci.indexed {
		c.dirty, ci.indexed = append(c.dirty, ci), true
	}
	return ci
}

// MarkDirty flags ci for write-back at the next sync (DirtyInodes skips an
// inode no longer cached). Callers serialize MarkDirty and MarkClean per
// inode, so a flag already set is read without the cache lock.
func (c *InodeCache) MarkDirty(ci *CachedInode) {
	if ci.Dirty {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ci.Dirty = true
	if !ci.indexed {
		c.dirty, ci.indexed = append(c.dirty, ci), true
	}
}

// MarkClean clears ci's dirty flag once its record is in the table block.
func (c *InodeCache) MarkClean(ci *CachedInode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ci.Dirty = false
}

func (c *InodeCache) evictLocked() {
	for ino, ci := range c.inodes {
		if !ci.Dirty && ci.Opens == 0 {
			delete(c.inodes, ino)
			if len(c.inodes) < c.max {
				return
			}
		}
	}
}

// Drop removes an inode from the cache (deallocation).
func (c *InodeCache) Drop(ino uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inodes, ino)
}

// DirtyInodes appends the dirty cached inodes to dst and returns the
// extended slice, sweeping the rest out of the set.
func (c *InodeCache) DirtyInodes(dst []*CachedInode) []*CachedInode {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dirty = slices.DeleteFunc(c.dirty, func(ci *CachedInode) bool {
		ci.indexed = ci.Dirty && c.inodes[ci.Ino] == ci
		return !ci.indexed
	})
	return append(dst, c.dirty...)
}

// Purge empties the cache (contained reboot). Open and dirty inodes are
// dropped too: after an error nothing in memory is trusted.
func (c *InodeCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inodes = make(map[uint32]*CachedInode)
	for _, ci := range c.dirty {
		ci.indexed = false
	}
	c.dirty = nil
}

// Len returns the number of cached inodes.
func (c *InodeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inodes)
}

// HitRate returns hits and misses since creation.
func (c *InodeCache) HitRate() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
