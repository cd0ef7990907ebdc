package cache

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
)

// newShardedBC builds a cache big enough to have several shards (when
// GOMAXPROCS allows), for exercising cross-shard behavior.
func newShardedBC(t *testing.T, blocks uint32) (*BufferCache, *blockdev.Mem) {
	t.Helper()
	dev := blockdev.NewMem(blocks)
	return NewBufferCache(dev, 256), dev
}

// TestBufShardSize pins the shard's footprint: the pad keeps each shard at
// 80 bytes so the shard array's layout on the cache-hit path never moves
// when a field is added or removed.
func TestBufShardSize(t *testing.T) {
	if got := unsafe.Sizeof(bufShard{}); got != 80 {
		t.Fatalf("unsafe.Sizeof(bufShard{}) = %d, want 80", got)
	}
}

// TestBufSize pins a buffer's footprint at 64 bytes, one allocation size
// class and one cache line, with the LRU links inside it.
func TestBufSize(t *testing.T) {
	if got := unsafe.Sizeof(Buf{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Buf{}) = %d, want 64", got)
	}
}

func TestShardCountBounds(t *testing.T) {
	// Tiny caches must keep exactly one shard so the eviction bound behaves
	// like the unsharded cache (the rest of cache_test.go relies on this).
	c, _ := newBC(t, 16, 8)
	if c.NumShards() != 1 {
		t.Fatalf("maxClean=8 got %d shards, want 1", c.NumShards())
	}
	big, _ := newShardedBC(t, 64)
	n := big.NumShards()
	if n < 1 || n > 16 || n&(n-1) != 0 {
		t.Fatalf("shard count %d not a power of two in [1,16]", n)
	}
	if runtime.GOMAXPROCS(0) >= 2 && n < 2 {
		t.Fatalf("256-buffer cache on %d procs got %d shards", runtime.GOMAXPROCS(0), n)
	}
	// Total clean bound is preserved across the split.
	total := 0
	for i := range big.shards {
		total += big.shards[i].maxClean
	}
	if total != 256 {
		t.Fatalf("summed per-shard maxClean = %d, want 256", total)
	}
}

// TestShardPinUnpinConcurrent pins the same blocks from many goroutines;
// pin counts must balance and pinned buffers must never be evicted even
// under shard-local eviction pressure.
func TestShardPinUnpinConcurrent(t *testing.T) {
	c, dev := newShardedBC(t, 2048)
	for blk := uint32(0); blk < 64; blk++ {
		fill(dev, blk, byte(blk))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for blk := uint32(0); blk < 64; blk++ {
					b, err := c.Get(blk)
					if err != nil {
						t.Errorf("get %d: %v", blk, err)
						return
					}
					if b.Data[0] != byte(blk) {
						t.Errorf("block %d: wrong content %#x", blk, b.Data[0])
						c.Release(b)
						return
					}
					c.Release(b)
				}
			}
		}()
	}
	wg.Wait()
	// Everything released: every cached buffer must be unpinned.
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for blk, b := range s.bufs {
			if b.pins != 0 {
				t.Errorf("block %d left with %d pins", blk, b.pins)
			}
		}
		s.mu.Unlock()
	}
}

// TestShardDropWhilePinnedNoResurrection drops a pinned buffer, churns its
// shard to force evictions, then releases the old pin: the dropped buffer
// must not re-enter the cache, and a fresh Get must read the device.
func TestShardDropWhilePinnedNoResurrection(t *testing.T) {
	c, dev := newShardedBC(t, 4096)
	nsh := uint32(c.NumShards())
	fill(dev, 4, 0x44)
	b, err := c.Get(4)
	if err != nil {
		t.Fatal(err)
	}
	c.Drop(4)
	// Churn the same shard (stride by shard count keeps us on block 4's
	// shard) far past its per-shard bound.
	s := c.shardFor(4)
	for blk := uint32(4 + nsh); blk < 4096; blk += nsh {
		x, err := c.Get(blk)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(x)
	}
	c.Release(b) // must NOT resurrect: block 4 may have been reallocated
	s.mu.Lock()
	if got, ok := s.bufs[4]; ok && got == b {
		s.mu.Unlock()
		t.Fatal("dropped buffer resurrected into the cache")
	}
	if b.inLRU() {
		s.mu.Unlock()
		t.Fatal("dropped buffer re-entered the LRU")
	}
	s.mu.Unlock()
	// Fresh get reads through.
	nb, err := c.Get(4)
	if err != nil {
		t.Fatal(err)
	}
	if nb == b {
		t.Fatal("Get returned the dropped buffer")
	}
	c.Release(nb)
}

// TestShardUnstableNeverEvicted marks buffers journaled-but-unstable and
// applies eviction pressure on their shard: unstable buffers must survive
// (a re-read would see the stale home copy).
func TestShardUnstableNeverEvicted(t *testing.T) {
	c, dev := newShardedBC(t, 4096)
	nsh := uint32(c.NumShards())
	fill(dev, 2, 0x22)
	b, err := c.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	b.Data[0] = 0x99
	c.MarkDirty(b)
	ver := b.ver
	c.Release(b)
	c.MarkJournaled(b, ver) // committed to journal, not yet checkpointed
	for blk := uint32(2 + nsh); blk < 4096; blk += nsh {
		x, err := c.Get(blk)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(x)
	}
	again, err := c.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if again != b || again.Data[0] != 0x99 {
		t.Fatal("unstable buffer was evicted and reread from stale home copy")
	}
	c.Release(again)
	// After MarkStable it becomes evictable again.
	c.MarkStable(2)
	for blk := uint32(2 + nsh); blk < 4096; blk += nsh {
		x, err := c.Get(blk)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(x)
	}
	s := c.shardFor(2)
	s.mu.Lock()
	_, still := s.bufs[2]
	s.mu.Unlock()
	if still {
		t.Fatal("stable clean buffer not evicted under pressure")
	}
}

// TestShardCrossShardConcurrentChurn mixes gets, dirtying, journaling,
// drops, and snapshots across every shard from many goroutines. Invariant
// checks are structural (no lost content, bounds respected); run with -race
// to catch locking mistakes.
func TestShardCrossShardConcurrentChurn(t *testing.T) {
	c, _ := newShardedBC(t, 8192)
	// The cache contract makes callers responsible for ordering buffer-data
	// mutation against SnapshotDirty's copies (basefs does it with fs.mu:
	// writers hold the read side, the sync snapshot the write side). Mirror
	// that here; every cache-internal lock is still exercised concurrently.
	var datamu sync.RWMutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint32(g * 1000)
			for i := 0; i < 200; i++ {
				blk := base + uint32(i%100)
				switch i % 4 {
				case 0:
					b, err := c.Get(blk)
					if err != nil {
						t.Errorf("get: %v", err)
						return
					}
					datamu.RLock()
					b.Data[0] = byte(g)
					c.MarkDirty(b)
					datamu.RUnlock()
					c.Release(b)
				case 1:
					b := c.GetNew(blk + 500)
					c.MarkDirtyMeta(b)
					c.Release(b)
					c.MarkJournaled(b, b.ver)
					c.MarkStable(blk + 500)
				case 2:
					datamu.Lock()
					snaps := c.SnapshotDirty(nil)
					datamu.Unlock()
					for _, sn := range snaps {
						if len(sn.Data) != disklayout.BlockSize {
							t.Errorf("snapshot block %d: short copy", sn.Blk)
							return
						}
					}
				case 3:
					c.Drop(blk)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() < 0 {
		t.Fatal("impossible")
	}
	_, _ = c.HitRate()
}
