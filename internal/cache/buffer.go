// Package cache implements the performance-oriented in-memory components of
// the base filesystem: a write-back buffer cache for disk blocks, an inode
// cache, and a dentry (name-lookup) cache.
//
// These are exactly the components the paper's Figure 2 places on the
// "common path (performance)" side and excludes from the shadow: "the shadow
// does not use a dentry cache ... does not utilize the concurrent inode and
// data block caches; instead, it uses a simple data structure" (§3.3). They
// are also where the base keeps the erroneous state that a contained reboot
// must discard: the RAE supervisor throws away the entire cache layer and
// re-mounts from disk.
package cache

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/telemetry"
)

// Buf is one cached block. Callers mutate Data only between Get and Release
// while holding the buffer pinned, and must call MarkDirty (or MarkDirtyMeta
// for metadata) after mutating. All other state — the meta flag, dirty and
// stability bits, pin counts — is owned by the shard that maps the buffer's
// block number and only changes under that shard's lock.
type Buf struct {
	Blk uint32
	// pins counts holders between Get and Release; it shares Blk's word, so
	// a Buf stays at 64 bytes with its LRU links.
	pins int32
	Data []byte
	// meta marks the block as filesystem metadata (inode table, bitmaps,
	// directory and indirect blocks). The sync path journals dirty metadata
	// blocks and writes dirty data blocks straight home (ordered mode).
	// Guarded by the shard lock: set via MarkDirtyMeta/Install, read via
	// SnapshotDirty.
	meta  bool
	dirty bool
	// unstable marks a block whose latest content is committed in the
	// journal but not yet checkpointed home. Such a buffer must never be
	// evicted — a re-read would see the stale home copy — so it stays out of
	// the LRU until MarkStable.
	unstable bool
	// dropped marks a buffer the cache no longer maps (block freed, or
	// evicted). A pin may outlive that, but it never re-enters the LRU and
	// snapshots skip it: its block may map to a different, live buffer.
	dropped bool
	indexed bool // in the shard's dirty index
	// ver counts dirtyings. The sync path snapshots (content, ver) under the
	// filesystem lock, performs IO outside it, and then clears dirty only if
	// ver is unchanged — a concurrent re-dirty keeps the buffer dirty.
	ver uint64
	// prev and next link the buffer into its shard's LRU; next is nil
	// while it is off the list.
	prev, next *Buf
}

// inLRU reports whether b is on its shard's LRU.
func (b *Buf) inLRU() bool { return b.next != nil }

// bufShard is one lock stripe of the cache: an independent map + LRU over
// the block numbers that hash to it. Every invariant the cache
// maintains (dirty/unstable/pinned exclusion from eviction, the clean-buffer
// bound, identity-checked map deletes) holds per shard; block numbers never
// migrate between shards, so no cross-shard ordering exists and no operation
// ever takes two shard locks.
type bufShard struct {
	mu   sync.Mutex
	bufs map[uint32]*Buf
	// dirty lists each dirty buffer of bufs from its first dirtying until a
	// snapshot finds it clean or dropped: re-dirtying a hot block is free.
	dirty    []*Buf
	lru      *lruList // least-recently-used at the front
	maxClean int
	hits     int64
	misses   int64
	c        *BufferCache // for its pool; keeps shards' hot words apart
}

// BufferCache is a write-back block cache with LRU eviction of clean,
// unpinned buffers, lock-striped by block number. Dirty and unstable buffers
// are never evicted; they leave those states only through the sync path
// (journal commit + checkpoint) or Drop.
type BufferCache struct {
	dev    blockdev.Device
	shards []bufShard
	mask   uint32 // len(shards)-1; shard count is a power of two
	// spares is the pool (see SpareBlock), guarded by spareMu.
	spareMu  sync.Mutex
	spares   [][]byte
	spareMax int // the clean budget, at most poolBlocks

	telHits, telMisses *telemetry.Counter
	// telLockWait records contended shard-lock acquisitions only
	// ("cache.shard.lock_wait").
	telLockWait *telemetry.Histogram
}

// shardCount picks the stripe width: enough shards to spread GOMAXPROCS
// writers, but never so many that a shard's clean-buffer bound drops below 8
// (tiny test caches get exactly one shard and behave like the unsharded
// cache), and capped so whole-cache reads (budget, length, hits) stay cheap.
func shardCount(maxClean int) int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < 16 && (s*2)*8 <= maxClean {
		s <<= 1
	}
	return s
}

// NewBufferCache creates a cache over dev holding at most maxClean clean
// buffers in total (dirty buffers are unbounded; sync policy bounds them in
// practice).
func NewBufferCache(dev blockdev.Device, maxClean int) *BufferCache {
	if maxClean < 8 {
		maxClean = 8
	}
	n := shardCount(maxClean)
	c := &BufferCache{
		dev:    dev,
		shards: make([]bufShard, n),
		mask:   uint32(n - 1),
	}
	c.setSpareMax(maxClean)
	for i := range c.shards {
		c.shards[i].bufs = make(map[uint32]*Buf)
		c.shards[i].lru = newLRU()
		c.shards[i].maxClean = maxClean / n
		c.shards[i].c = c
	}
	return c
}

// poolBlocks caps a pool at 512 KiB; a stream gains as much as from 1024.
const poolBlocks = 128

// SpareBlock returns a BlockSize block from the cache's pool, or a fresh
// one when the pool is empty. Its bytes are arbitrary: the caller
// overwrites or clears every byte it will read. A block joins the pool only
// when nothing can reach it any more. The pool is per cache, so a contained
// reboot discards it with the abandoned instance's blocks.
func (c *BufferCache) SpareBlock() []byte {
	c.spareMu.Lock()
	if n := len(c.spares); n > 0 {
		b := c.spares[n-1]
		c.spares[n-1] = nil
		c.spares = c.spares[:n-1]
		c.spareMu.Unlock()
		return b
	}
	c.spareMu.Unlock()
	return make([]byte, disklayout.BlockSize)
}

// Recycle hands a BlockSize block nothing else holds to the pool; the caller
// must not touch it again. A full pool, or a nil block, leaves it to the GC.
func (c *BufferCache) Recycle(b []byte) {
	c.spareMu.Lock()
	if len(b) == disklayout.BlockSize && len(c.spares) < c.spareMax {
		c.spares = append(c.spares, b)
	}
	c.spareMu.Unlock()
}

// setSpareMax bounds the pool by a clean budget, freeing the surplus.
func (c *BufferCache) setSpareMax(maxClean int) {
	c.spareMu.Lock()
	c.spareMax = min(maxClean, poolBlocks)
	c.spares = slices.Delete(c.spares, min(c.spareMax, len(c.spares)), len(c.spares))
	c.spareMu.Unlock()
}

// Holdings returns the data of every buffer the cache maps, the pool's
// spare blocks and the pool's bound. It exists only for the ownership tests
// of this package and of basefs; no production path calls it.
func (c *BufferCache) Holdings() (mapped, spares [][]byte, bound int) {
	for i := range c.shards {
		s := &c.shards[i]
		c.lock(s)
		for _, b := range s.bufs {
			mapped = append(mapped, b.Data)
		}
		s.mu.Unlock()
	}
	c.spareMu.Lock()
	defer c.spareMu.Unlock()
	return mapped, slices.Clone(c.spares), c.spareMax
}

// NumShards returns the lock-stripe width (for tests and diagnostics).
func (c *BufferCache) NumShards() int { return len(c.shards) }

// SetCleanBudget adjusts the cache's total clean-buffer bound at runtime,
// splitting it evenly across shards. Shrinking evicts immediately down to the
// new bound (clean, stable, unpinned buffers only — dirty and unstable
// buffers are never evictable, so a shrink can only reclaim what is safe to
// reclaim) and trims the pool, so donated capacity frees memory; growing
// takes effect on the next insertions. This is the donation/reclaim
// primitive the multi-volume cache rebalancer drives: one volume's cache
// donates capacity, another's reclaims it, and the fleet-wide sum of
// budgets stays constant. Values below the 8-buffer floor clamp to it.
func (c *BufferCache) SetCleanBudget(maxClean int) {
	if maxClean < 8 {
		maxClean = 8
	}
	per := maxClean / len(c.shards)
	if per < 1 {
		per = 1
	}
	c.setSpareMax(maxClean)
	for i := range c.shards {
		s := &c.shards[i]
		c.lock(s)
		s.maxClean = per
		s.evictLocked()
		s.mu.Unlock()
	}
}

// CleanBudget returns the current total clean-buffer bound (the sum of the
// per-shard bounds, which is what SetCleanBudget's split actually enforces).
func (c *BufferCache) CleanBudget() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		c.lock(s)
		total += s.maxClean
		s.mu.Unlock()
	}
	return total
}

// CleanLen returns the number of clean, unpinned, LRU-resident buffers — the
// population the clean budget bounds (Len also counts dirty, unstable, and
// pinned buffers, which no budget governs).
func (c *BufferCache) CleanLen() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		c.lock(s)
		n += s.lru.n
		s.mu.Unlock()
	}
	return n
}

func (c *BufferCache) shardFor(blk uint32) *bufShard {
	return &c.shards[blk&c.mask]
}

// lock acquires one shard, recording the wait time of contended
// acquisitions. The fast path is a single TryLock.
func (c *BufferCache) lock(s *bufShard) {
	if c.telLockWait == nil {
		s.mu.Lock()
		return
	}
	if s.mu.TryLock() {
		return
	}
	t0 := time.Now()
	s.mu.Lock()
	c.telLockWait.Observe(time.Since(t0))
}

// SetTelemetry installs hit/miss counters ("cache.buffer.*") and the shard
// contention histogram ("cache.shard.lock_wait") from s.
func (c *BufferCache) SetTelemetry(s *telemetry.Sink) {
	if s == nil {
		return
	}
	c.telHits = s.Counter("cache.buffer.hits")
	c.telMisses = s.Counter("cache.buffer.misses")
	c.telLockWait = s.Histogram("cache.shard.lock_wait")
}

// Get returns the cached buffer for blk, reading it from the device on a
// miss. The buffer is returned pinned; the caller must Release it.
func (c *BufferCache) Get(blk uint32) (*Buf, error) {
	s := c.shardFor(blk)
	c.lock(s)
	if b, ok := s.bufs[blk]; ok {
		b.pins++
		s.lru.touch(b)
		s.hits++
		c.telHits.Inc()
		s.mu.Unlock()
		return b, nil
	}
	s.misses++
	c.telMisses.Inc()
	s.mu.Unlock()

	// Read outside the lock so concurrent misses overlap their IO.
	data, err := c.dev.ReadBlock(blk)
	if err != nil {
		return nil, err
	}

	c.lock(s)
	defer s.mu.Unlock()
	if b, ok := s.bufs[blk]; ok {
		// Another goroutine cached it first; prefer theirs (it may be dirty).
		b.pins++
		return b, nil
	}
	b := &Buf{Blk: blk, Data: data, pins: 1}
	s.bufs[blk] = b
	s.evictLocked()
	return b, nil
}

// GetNew returns a pinned buffer for a freshly allocated blk without reading
// the device. Its bytes are arbitrary (a pool block keeps what it last
// held): the caller writes or clears every byte before it marks the buffer
// dirty, so a block the caller overwrites in full is never cleared first.
func (c *BufferCache) GetNew(blk uint32) *Buf {
	s := c.shardFor(blk)
	c.lock(s)
	defer s.mu.Unlock()
	if b, ok := s.bufs[blk]; ok {
		b.pins++
		return b
	}
	b := &Buf{Blk: blk, Data: c.SpareBlock(), pins: 1}
	s.bufs[blk] = b
	s.evictLocked()
	return b
}

// MarkDirty flags a pinned buffer as modified data. Dirty buffers are exempt
// from eviction until flushed.
func (c *BufferCache) MarkDirty(b *Buf) {
	s := c.shardFor(b.Blk)
	c.lock(s)
	defer s.mu.Unlock()
	s.markDirtyLocked(b)
}

// MarkDirtyMeta flags a pinned buffer as modified metadata, routing it to
// the journaled side of the sync path. The meta flag is set under the shard
// lock so concurrent sync snapshots never race on it.
func (c *BufferCache) MarkDirtyMeta(b *Buf) {
	s := c.shardFor(b.Blk)
	c.lock(s)
	defer s.mu.Unlock()
	b.meta = true
	s.markDirtyLocked(b)
}

func (s *bufShard) markDirtyLocked(b *Buf) {
	if !b.indexed {
		s.dirty, b.indexed = append(s.dirty, b), true
	}
	b.dirty = true
	b.ver++
	s.lru.remove(b)
}

// Release unpins a buffer. Clean, stable, unpinned buffers become eviction
// candidates. A buffer that was Dropped while pinned is gone for good: its
// block number may already belong to a different live buffer, so it must not
// re-enter the LRU.
func (c *BufferCache) Release(b *Buf) {
	s := c.shardFor(b.Blk)
	c.lock(s)
	defer s.mu.Unlock()
	if b.pins <= 0 {
		panic(fmt.Sprintf("cache: release of unpinned buffer %d", b.Blk))
	}
	b.pins--
	s.maybeCacheLocked(b)
}

// maybeCacheLocked inserts b into the LRU if it is eligible, then enforces
// the shard's clean-buffer bound.
func (s *bufShard) maybeCacheLocked(b *Buf) {
	if b.pins == 0 && !b.dirty && !b.unstable && !b.dropped && !b.inLRU() {
		s.lru.push(b)
		s.evictLocked()
	}
}

// lruList is an LRU list threaded through the buffers themselves: root is
// the sentinel of a circular list over Buf.prev/next, so putting a buffer
// on the list allocates nothing.
type lruList struct {
	root Buf
	n    int
}

func newLRU() *lruList {
	l := new(lruList)
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

// push puts b, which is off the list, at the most recently used end.
func (l *lruList) push(b *Buf) {
	last := l.root.prev
	b.prev, b.next = last, &l.root
	last.next = b
	l.root.prev = b
	l.n++
}

// remove takes b off the list if it is on it.
func (l *lruList) remove(b *Buf) {
	if !b.inLRU() {
		return
	}
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
	l.n--
}

// touch moves b, if it is on the list, to the most recently used end.
func (l *lruList) touch(b *Buf) {
	if b.inLRU() && l.root.prev != b {
		l.remove(b)
		l.push(b)
	}
}

func (s *bufShard) evictLocked() {
	for s.lru.n > s.maxClean {
		b := s.lru.root.next
		s.lru.remove(b)
		// Identity check: only evict the mapping if it still points at this
		// buffer, never a successor that reused the block number. A hit pins
		// without leaving the LRU, so as under Drop, a pinned b keeps its
		// block; an unpinned one's goes to the pool, and a stray use panics.
		if cur, ok := s.bufs[b.Blk]; ok && cur == b {
			delete(s.bufs, b.Blk)
			b.dropped = true
			if b.pins == 0 {
				s.c.Recycle(b.Data)
				b.Data = nil
			}
		}
	}
}

// DirtySnap is one dirty buffer captured by SnapshotDirty: a stable copy of
// its content plus the version that content corresponds to.
type DirtySnap struct {
	Buf  *Buf
	Blk  uint32
	Meta bool
	Ver  uint64
	Data []byte
}

// SnapshotDirty appends to dst a copy of every dirty buffer (block, meta
// flag, version, content) out of each shard's dirty index, each copied into
// a pool block the caller owns, and returns the extended slice. The sync
// path snapshots under the filesystem lock into a slice it reuses every
// round, does IO on the copies outside all locks, and retires each buffer
// with MarkCleanVer/MarkJournaled so a concurrent re-dirty is kept.
func (c *BufferCache) SnapshotDirty(dst []DirtySnap) []DirtySnap {
	for i := range c.shards {
		s := &c.shards[i]
		c.lock(s)
		s.dirty = slices.DeleteFunc(s.dirty, func(b *Buf) bool {
			b.indexed = b.dirty && !b.dropped
			return !b.indexed
		})
		for _, b := range s.dirty {
			cp := c.SpareBlock()
			copy(cp, b.Data)
			dst = append(dst, DirtySnap{Buf: b, Blk: b.Blk, Meta: b.meta, Ver: b.ver, Data: cp})
		}
		s.mu.Unlock()
	}
	return dst
}

// MarkClean clears the dirty flag after the buffer's contents have been made
// durable, returning it to LRU circulation if eligible.
func (c *BufferCache) MarkClean(b *Buf) {
	s := c.shardFor(b.Blk)
	c.lock(s)
	defer s.mu.Unlock()
	if !b.dirty {
		return
	}
	b.dirty = false
	s.maybeCacheLocked(b)
}

// MarkCleanVer clears the dirty flag only if the buffer has not been
// re-dirtied since the version was captured (see SnapshotDirty). The sync
// path uses it for data blocks written home outside the filesystem lock.
func (c *BufferCache) MarkCleanVer(b *Buf, ver uint64) {
	s := c.shardFor(b.Blk)
	c.lock(s)
	defer s.mu.Unlock()
	if !b.dirty || b.ver != ver {
		return
	}
	b.dirty = false
	s.maybeCacheLocked(b)
}

// MarkJournaled records that the buffer's content at the captured version is
// now committed in the journal: the buffer turns unstable (home copy stale,
// so it is pinned out of eviction until a checkpoint) and, if it has not
// been re-dirtied meanwhile, clean. A re-dirtied buffer stays dirty — its
// newer content will ride a later transaction — but still turns unstable,
// because the journal now holds a live record targeting its home.
func (c *BufferCache) MarkJournaled(b *Buf, ver uint64) {
	s := c.shardFor(b.Blk)
	c.lock(s)
	defer s.mu.Unlock()
	b.unstable = true
	s.lru.remove(b)
	if b.dirty && b.ver == ver {
		b.dirty = false
	}
}

// MarkStable clears the unstable state of blk after a checkpoint wrote its
// journaled content home and flushed. No-op if the block is no longer cached
// (freed) or was reallocated to a buffer that is not unstable.
func (c *BufferCache) MarkStable(blk uint32) {
	s := c.shardFor(blk)
	c.lock(s)
	defer s.mu.Unlock()
	b, ok := s.bufs[blk]
	if !ok || !b.unstable {
		return
	}
	b.unstable = false
	s.maybeCacheLocked(b)
}

// Install places externally produced block contents (the shadow's metadata
// download) into the cache as a dirty buffer, replacing any cached version.
// This is the base's "metadata downloading" absorption point (§3.2). meta
// tags the block for the journaled sync path.
//
// Install adopts data: the caller hands over ownership and must not touch
// the slice afterwards. The single defensive copy across the isolation
// boundary happens where the hand-off image is sealed, not here.
func (c *BufferCache) Install(blk uint32, data []byte, meta bool) {
	s := c.shardFor(blk)
	c.lock(s)
	defer s.mu.Unlock()
	b, ok := s.bufs[blk]
	if !ok {
		b = &Buf{Blk: blk}
		s.bufs[blk] = b
	}
	s.lru.remove(b)
	b.Data = data
	b.meta = meta
	b.dirty = true
	b.ver++
	if !b.indexed {
		s.dirty, b.indexed = append(s.dirty, b), true
	}
}

// Peek returns the cached buffer for blk pinned, or nil without performing
// any IO. The vectored read path uses it to separate cache hits (which may be
// dirtier than disk) from the misses it batches into device-level runs.
func (c *BufferCache) Peek(blk uint32) *Buf {
	s := c.shardFor(blk)
	c.lock(s)
	defer s.mu.Unlock()
	b, ok := s.bufs[blk]
	if !ok {
		return nil
	}
	b.pins++
	s.lru.touch(b)
	s.hits++
	c.telHits.Inc()
	return b
}

// InstallClean adopts externally produced contents that are known to match
// the device (a completed vectored read or write-back) as a clean, unpinned
// buffer. If the block is already cached, the existing buffer — which may
// carry newer, dirty content — wins and data goes to the pool. The caller
// hands over ownership of data.
func (c *BufferCache) InstallClean(blk uint32, data []byte) {
	s := c.shardFor(blk)
	c.lock(s)
	defer s.mu.Unlock()
	if _, ok := s.bufs[blk]; ok {
		c.Recycle(data)
		return
	}
	b := &Buf{Blk: blk, Data: data}
	s.bufs[blk] = b
	s.maybeCacheLocked(b)
}

// Drop removes a block from the cache regardless of state (used when a block
// is freed). A pinned buffer stays with its holder but is marked dropped and
// never re-enters the cache; an unpinned one's block goes to the pool.
func (c *BufferCache) Drop(blk uint32) {
	s := c.shardFor(blk)
	c.lock(s)
	defer s.mu.Unlock()
	if b, ok := s.bufs[blk]; ok {
		s.lru.remove(b)
		b.dropped = true
		delete(s.bufs, blk)
		if b.pins == 0 {
			c.Recycle(b.Data)
			b.Data = nil
		}
	}
}

// Len returns the number of cached buffers across all shards.
func (c *BufferCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		c.lock(s)
		n += len(s.bufs)
		s.mu.Unlock()
	}
	return n
}

// HitRate returns cache hits and misses since creation.
func (c *BufferCache) HitRate() (hits, misses int64) {
	for i := range c.shards {
		s := &c.shards[i]
		c.lock(s)
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}
