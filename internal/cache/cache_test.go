package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
)

func newBC(t *testing.T, blocks uint32, maxClean int) (*BufferCache, *blockdev.Mem) {
	t.Helper()
	dev := blockdev.NewMem(blocks)
	return NewBufferCache(dev, maxClean), dev
}

func fill(dev *blockdev.Mem, blk uint32, b byte) {
	data := make([]byte, disklayout.BlockSize)
	for i := range data {
		data[i] = b
	}
	_ = dev.WriteBlock(blk, data)
}

func TestBufferCacheReadThrough(t *testing.T) {
	c, dev := newBC(t, 16, 8)
	fill(dev, 3, 0x33)
	b, err := c.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Data[0] != 0x33 {
		t.Error("read-through returned wrong data")
	}
	c.Release(b)
	// Second get must hit.
	b2, _ := c.Get(3)
	c.Release(b2)
	hits, misses := c.HitRate()
	if hits != 1 || misses != 1 {
		t.Errorf("hit/miss = %d/%d, want 1/1", hits, misses)
	}
}

func TestBufferCacheEvictsCleanLRU(t *testing.T) {
	c, _ := newBC(t, 64, 8)
	for i := uint32(0); i < 20; i++ {
		b, err := c.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(b)
	}
	if c.Len() > 8 {
		t.Errorf("cache holds %d buffers, max 8", c.Len())
	}

	// A budget the rebalancer takes back frees memory: after a shrink the
	// cache holds at most the new budget in clean buffers plus the pool's
	// bound in spares, and GetNew hands out a spare block still full of an
	// evicted block's bytes without clearing it: its caller writes or
	// clears every byte.
	c, dev := newBC(t, 64, 48)
	for i := uint32(0); i < 64; i++ {
		fill(dev, i, 0xC3)
	}
	for i := uint32(0); i < 64; i++ {
		b, err := c.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(b)
	}
	if _, spares, _ := c.Holdings(); len(spares) <= 8 {
		t.Fatalf("the pool holds %d spares under a 48-block budget, want more than 8", len(spares))
	}
	c.SetCleanBudget(8)
	mapped, spares, bound := c.Holdings()
	if len(mapped) > 8 || len(spares) > bound || bound > 8 {
		t.Errorf("after shrinking to 8: %d buffers and %d spares (bound %d), want at most 8 of each", len(mapped), len(spares), bound)
	}
	z := c.GetNew(100)
	defer c.Release(z)
	if _, left, _ := c.Holdings(); len(left) != len(spares)-1 {
		t.Errorf("GetNew left %d of %d spares, want it to take one", len(left), len(spares))
	}
	if !bytes.Equal(z.Data, bytes.Repeat([]byte{0xC3}, disklayout.BlockSize)) {
		t.Error("GetNew cleared a recycled block")
	}
}

// TestEvictedBufferDataIsNil pins the pool's sources at the cache: an
// evicted buffer and a buffer dropped unpinned lose their Data to the pool,
// so a stray later use panics instead of aliasing the block's next owner; a
// buffer dropped while pinned, or evicted while a hit pins it (pushed out by
// insertions or by a budget shrink), keeps its Data for its holder; and a
// block InstallClean refuses goes to the pool.
func TestEvictedBufferDataIsNil(t *testing.T) {
	c, dev := newBC(t, 64, 8)
	evicted, _ := c.Get(0)
	c.Release(evicted)
	for i := uint32(1); i <= 8; i++ {
		b, _ := c.Get(i)
		c.Release(b)
	}
	if evicted.Data != nil {
		t.Error("an evicted buffer still holds its block")
	}
	dropped, _ := c.Get(1)
	c.Release(dropped)
	c.Drop(1)
	if dropped.Data != nil {
		t.Error("a buffer dropped unpinned still holds its block")
	}
	pinned, _ := c.Get(2)
	c.Drop(2)
	if pinned.Data == nil {
		t.Error("a buffer dropped while pinned lost its block under its holder")
	}
	c.Release(pinned)
	// A hit pins a buffer but leaves it in the LRU, so insertions or a budget
	// shrink can evict it while pinned; it keeps its block, which no pool
	// sink may refill under its holder.
	c.SetCleanBudget(16)
	hitPinned := func(blk uint32) *Buf {
		fill(dev, blk, byte(blk))
		b, _ := c.Get(blk)
		c.Release(b)
		b, _ = c.Get(blk)
		return b
	}
	pushed := hitPinned(20)
	for i := uint32(21); i < 37; i++ {
		b, _ := c.Get(i)
		c.Release(b)
	}
	shrunk := hitPinned(40)
	for i := uint32(41); i < 56; i++ {
		b, _ := c.Get(i)
		c.Release(b)
	}
	c.SetCleanBudget(8)
	for i := uint32(56); i < 64; i++ {
		c.Release(c.GetNew(i))
	}
	for _, b := range []*Buf{pushed, shrunk} {
		if b.Data == nil || !bytes.Equal(b.Data, bytes.Repeat([]byte{byte(b.Blk)}, disklayout.BlockSize)) {
			t.Errorf("block %d, evicted while hit-pinned, lost its bytes under its holder", b.Blk)
		}
	}
	_, spares, bound := c.Holdings()
	held := func(b []byte) bool {
		for _, s := range spares {
			if len(b) > 0 && &s[0] == &b[0] {
				return true
			}
		}
		return false
	}
	for _, b := range []*Buf{pinned, pushed, shrunk} {
		if held(b.Data) {
			t.Errorf("block %d went to the pool while pinned", b.Blk)
		}
	}
	c.Release(pushed)
	c.Release(shrunk)
	for range bound {
		c.SpareBlock() // room for the refused block
	}
	cached, _ := c.Get(3)
	c.Release(cached)
	refused := make([]byte, disklayout.BlockSize)
	c.InstallClean(3, refused)
	_, spares, _ = c.Holdings()
	if !held(refused) {
		t.Error("a block InstallClean refused did not go to the pool")
	}
}

// TestHitPinnedSurvivesConcurrentEviction runs the hit-pin case of
// TestEvictedBufferDataIsNil on several goroutines: while one holds a block
// pinned by a hit, the others' reads and zero-fills evict it and drain the
// pool. Its bytes must stay its block's, and under -race no refill or nil
// store may touch them.
func TestHitPinnedSurvivesConcurrentEviction(t *testing.T) {
	c, dev := newBC(t, 64, 8)
	for i := uint32(0); i < 48; i++ {
		fill(dev, i, byte(i))
	}
	var wg sync.WaitGroup
	for g := uint32(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := uint32(0); it < 200; it++ {
				blk := (g*13 + it*7) % 48
				b, _ := c.Get(blk)
				c.Release(b)
				b, _ = c.Get(blk)
				for k := uint32(1); k <= 10; k++ {
					o, _ := c.Get((blk + k*5) % 48)
					c.Release(o)
				}
				c.Release(c.GetNew(48 + (g*4+it)%16))
				if b.Data == nil || b.Data[0] != byte(blk) || b.Data[disklayout.BlockSize-1] != byte(blk) {
					t.Errorf("block %d changed under the hit that pins it", blk)
					c.Release(b)
					return
				}
				c.Release(b)
			}
		}()
	}
	wg.Wait()
}

func TestBufferCacheDirtyNeverEvicted(t *testing.T) {
	c, _ := newBC(t, 64, 8)
	b, _ := c.Get(0)
	b.Data[0] = 0xEE
	c.MarkDirty(b)
	c.Release(b)
	for i := uint32(1); i < 30; i++ {
		x, _ := c.Get(i)
		c.Release(x)
	}
	b2, _ := c.Get(0)
	defer c.Release(b2)
	if b2.Data[0] != 0xEE {
		t.Error("dirty buffer was evicted and reread from disk")
	}
	if n := len(c.SnapshotDirty(nil)); n != 1 {
		t.Errorf("SnapshotDirty = %d buffers, want 1", n)
	}
}

func TestBufferCachePinnedNotEvicted(t *testing.T) {
	c, dev := newBC(t, 64, 8)
	fill(dev, 5, 0x55)
	pinned, _ := c.Get(5)
	for i := uint32(10); i < 40; i++ {
		x, _ := c.Get(i)
		c.Release(x)
	}
	// The pinned buffer must still be the same object.
	again, _ := c.Get(5)
	if again != pinned {
		t.Error("pinned buffer was evicted")
	}
	c.Release(again)
	c.Release(pinned)
}

func TestBufferCacheMarkCleanReturnsToLRU(t *testing.T) {
	c, _ := newBC(t, 64, 8)
	b, _ := c.Get(0)
	c.MarkDirty(b)
	c.Release(b)
	c.MarkClean(b)
	for i := uint32(1); i < 30; i++ {
		x, _ := c.Get(i)
		c.Release(x)
	}
	if c.Len() > 8 {
		t.Errorf("clean buffer not evictable: len=%d", c.Len())
	}
}

func TestBufferCacheInstall(t *testing.T) {
	c, dev := newBC(t, 16, 8)
	fill(dev, 2, 0x22)
	data := make([]byte, disklayout.BlockSize)
	data[0] = 0x99
	c.Install(2, data, true)
	b, _ := c.Get(2)
	defer c.Release(b)
	if b.Data[0] != 0x99 {
		t.Error("Install did not override device contents")
	}
	if !b.dirty {
		t.Error("installed buffer is not dirty")
	}
	// Install adopts the slice: the cache serves exactly the bytes handed
	// over, with no second copy on this side of the isolation boundary.
	if &b.Data[0] != &data[0] {
		t.Error("Install copied instead of adopting the caller's buffer")
	}
}

// TestBufferCacheInstallAllocs pins the single-copy handoff contract: once
// the buffer exists, Install must not allocate — in particular it must not
// re-copy the block image, which would reintroduce the double deep-copy on
// the absorb path.
func TestBufferCacheInstallAllocs(t *testing.T) {
	c, _ := newBC(t, 16, 8)
	data := make([]byte, disklayout.BlockSize)
	c.Install(3, data, true)
	n := testing.AllocsPerRun(100, func() {
		c.Install(3, data, true)
	})
	if n >= 1 {
		t.Errorf("Install allocates %.1f objects per call, want 0", n)
	}
}

func TestBufferCacheGetNew(t *testing.T) {
	c, dev := newBC(t, 16, 8)
	fill(dev, 7, 0x77)
	b := c.GetNew(7)
	defer c.Release(b)
	if b.Data[0] == 0x77 {
		t.Error("GetNew returned the device's bytes")
	}
	if _, misses := c.HitRate(); misses != 0 {
		t.Error("GetNew read the device")
	}
}

func TestBufferCacheDrop(t *testing.T) {
	c, _ := newBC(t, 16, 8)
	b, _ := c.Get(1)
	c.MarkDirty(b)
	c.Release(b)
	c.Drop(1)
	if c.Len() != 0 {
		t.Error("Drop left the buffer cached")
	}
}

func TestBufferCacheReleaseUnpinnedPanics(t *testing.T) {
	c, _ := newBC(t, 16, 8)
	b, _ := c.Get(0)
	c.Release(b)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	c.Release(b)
}

func TestBufferCacheConcurrentGets(t *testing.T) {
	c, dev := newBC(t, 128, 32)
	for i := uint32(0); i < 128; i++ {
		fill(dev, i, byte(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				blk := uint32((g*37 + i) % 128)
				b, err := c.Get(blk)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if b.Data[0] != byte(blk) {
					t.Errorf("block %d has wrong data %#x", blk, b.Data[0])
					c.Release(b)
					return
				}
				c.Release(b)
			}
		}(g)
	}
	wg.Wait()
}

func TestDentryCacheBasics(t *testing.T) {
	dc := NewDentryCache(100)
	if _, _, found := dc.Lookup(1, "a"); found {
		t.Error("empty cache reported a hit")
	}
	dc.Add(1, "a", 42)
	ino, neg, found := dc.Lookup(1, "a")
	if !found || neg || ino != 42 {
		t.Errorf("Lookup = (%d,%v,%v)", ino, neg, found)
	}
	dc.AddNegative(1, "ghost")
	_, neg, found = dc.Lookup(1, "ghost")
	if !found || !neg {
		t.Error("negative entry not cached")
	}
	dc.Invalidate(1, "a")
	if _, _, found := dc.Lookup(1, "a"); found {
		t.Error("Invalidate left the entry")
	}
}

func TestDentryCacheInvalidateDir(t *testing.T) {
	dc := NewDentryCache(100)
	dc.Add(1, "a", 2)
	dc.Add(1, "b", 3)
	dc.Add(9, "c", 4)
	dc.InvalidateDir(1)
	if _, _, found := dc.Lookup(1, "a"); found {
		t.Error("entry under invalidated dir survives")
	}
	if _, _, found := dc.Lookup(9, "c"); !found {
		t.Error("entry under other dir was dropped")
	}
}

func TestDentryCacheBoundAndPurge(t *testing.T) {
	dc := NewDentryCache(16)
	for i := 0; i < 100; i++ {
		dc.Add(1, string(rune('a'+i%26))+string(rune('0'+i/26)), uint32(i))
	}
	if dc.Len() > 16 {
		t.Errorf("cache exceeded bound: %d", dc.Len())
	}
	dc.Purge()
	if dc.Len() != 0 {
		t.Error("Purge left entries")
	}
}

func TestInodeCacheBasics(t *testing.T) {
	ic := NewInodeCache(100)
	if ic.Get(5) != nil {
		t.Error("empty cache returned an inode")
	}
	ci := &CachedInode{Ino: 5}
	got := ic.Put(ci)
	if got != ci {
		t.Error("Put returned a different object")
	}
	if ic.Get(5) != ci {
		t.Error("Get after Put missed")
	}
	// Concurrent double insert: first wins.
	ci2 := &CachedInode{Ino: 5}
	if got := ic.Put(ci2); got != ci {
		t.Error("second Put replaced the first inode")
	}
}

func TestInodeCacheEvictionSparesDirtyAndOpen(t *testing.T) {
	ic := NewInodeCache(16)
	dirty := &CachedInode{Ino: 1, Dirty: true}
	open := &CachedInode{Ino: 2, Opens: 1}
	ic.Put(dirty)
	ic.Put(open)
	for i := uint32(10); i < 100; i++ {
		ic.Put(&CachedInode{Ino: i})
	}
	if ic.Get(1) == nil {
		t.Error("dirty inode evicted")
	}
	if ic.Get(2) == nil {
		t.Error("open inode evicted")
	}
	if len(ic.DirtyInodes(nil)) != 1 {
		t.Errorf("DirtyInodes = %d, want 1", len(ic.DirtyInodes(nil)))
	}
}

func TestInodeCacheDropAndPurge(t *testing.T) {
	ic := NewInodeCache(16)
	ic.Put(&CachedInode{Ino: 3, Dirty: true})
	ic.Drop(3)
	if ic.Get(3) != nil {
		t.Error("Drop left the inode")
	}
	ic.Put(&CachedInode{Ino: 4, Dirty: true, Opens: 2})
	ic.Purge()
	if ic.Len() != 0 {
		t.Error("Purge left inodes (contained reboot must drop everything)")
	}
}

// TestDropWhilePinnedDoesNotResurrect is the regression test for the
// stale-buffer bug: releasing a pin on a buffer that was Drop-ped while
// pinned used to re-insert the stale *Buf into the clean LRU. The stale
// entry shared a block number with the live successor, so a later eviction
// could delete the successor from the cache map — silently losing a dirty
// buffer and its data.
func TestDropWhilePinnedDoesNotResurrect(t *testing.T) {
	c, _ := newBC(t, 256, 4)
	old, err := c.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	// Drop while the pin is still held (the truncate/free path does this
	// when another goroutine is mid-read).
	c.Drop(5)
	// The block is reallocated: a fresh buffer with dirty contents.
	fresh := c.GetNew(5)
	fresh.Data[0] = 0xD1
	c.MarkDirty(fresh)
	c.Release(fresh)
	// Releasing the stale pin must NOT put the dead buffer back in the LRU.
	c.Release(old)
	// Churn the cache hard enough to evict anything the release enqueued.
	for i := uint32(100); i < 120; i++ {
		b, err := c.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(b)
	}
	got, err := c.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(got)
	if got != fresh || got.Data[0] != 0xD1 {
		t.Fatalf("live dirty buffer lost: got %p (data[0]=%#x), want %p", got, got.Data[0], fresh)
	}
	var dirty bool
	for _, s := range c.SnapshotDirty(nil) {
		if s.Blk == 5 && s.Buf == fresh {
			dirty = true
		}
	}
	if !dirty {
		t.Error("block 5 vanished from the dirty set")
	}
}

// TestUnstableBufferNeverEvicted: a journaled-but-not-checkpointed buffer
// must stay out of the clean LRU — evicting it would let a later Get reread
// the stale home-location copy from disk.
func TestUnstableBufferNeverEvicted(t *testing.T) {
	c, dev := newBC(t, 256, 4)
	fill(dev, 7, 0x00) // stale home copy
	b, err := c.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	b.Data[0] = 0x77
	c.MarkDirty(b)
	snaps := c.SnapshotDirty(nil)
	if len(snaps) != 1 || snaps[0].Blk != 7 {
		t.Fatalf("snapshot = %+v", snaps)
	}
	c.MarkJournaled(b, snaps[0].Ver)
	c.Release(b)
	for i := uint32(100); i < 120; i++ {
		x, err := c.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(x)
	}
	got, err := c.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(got)
	if got.Data[0] != 0x77 {
		t.Fatal("unstable buffer evicted; Get reread the stale home copy")
	}
	c.MarkStable(7)
}

// TestDentryCacheConcurrentCounts runs lookups, adds and invalidations from
// 8 goroutines at once: a lookup takes only the read lock, and the hit and
// miss counters still account for every lookup exactly (run under -race).
func TestDentryCacheConcurrentCounts(t *testing.T) {
	c := NewDentryCache(64)
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("n%d", i%40)
				c.Lookup(uint32(w%3), name)
				switch i % 10 {
				case 0:
					c.Add(uint32(w%3), name, uint32(i))
				case 5:
					c.Invalidate(uint32(w%3), name)
				case 9:
					c.AddNegative(uint32(w%3), name)
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := c.HitRate()
	if hits+misses != workers*iters {
		t.Fatalf("hits %d + misses %d = %d, want %d lookups", hits, misses, hits+misses, workers*iters)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("hits %d, misses %d: want both", hits, misses)
	}
}
