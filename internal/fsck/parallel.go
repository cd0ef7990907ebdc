package fsck

import (
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
)

// This file is the parallel front half of the checker (pFSCK-style). The
// design splits the check into an IO-bound scan and a CPU-bound merge:
//
//	scan   a worker pool stripes over the inode-table blocks; each worker
//	       decodes the records in its stripe and immediately pulls the
//	       indirect and directory blocks they reference into a sharded
//	       block cache — so the directory walk's IO is pipelined behind
//	       the table scan instead of serialized after it
//	merge  after the barrier, the sequential rule engine (run in fsck.go)
//	       executes unchanged over the warmed cache at memory speed
//
// Decode results in the scan phase steer prefetch only; every finding,
// claim, and counter is produced by the deterministic merge. That is what
// makes CheckParallel's report identical to Check's by construction — the
// property the differential tests pin.

// cacheShardCount shards the block cache to keep scan workers off one lock.
const cacheShardCount = 16

type cachedBlock struct {
	data []byte
	err  error
}

type cacheShard struct {
	mu sync.Mutex
	m  map[uint32]cachedBlock
}

// cachedReader is a read-through block cache over a device. The first
// outcome stored for a block — payload or error — is authoritative for the
// whole check, so the merge phase sees exactly what the scan phase saw.
// Cached payloads are returned without copying; the checker never mutates
// a block it reads.
type cachedReader struct {
	dev    blockdev.Device
	shards [cacheShardCount]cacheShard
}

func newCachedReader(dev blockdev.Device) *cachedReader {
	c := &cachedReader{dev: dev}
	for i := range c.shards {
		c.shards[i].m = make(map[uint32]cachedBlock)
	}
	return c
}

// NumBlocks reports the underlying device size.
func (c *cachedReader) NumBlocks() uint32 { return c.dev.NumBlocks() }

// ReadBlock returns the cached outcome for blk, reading through on a miss.
func (c *cachedReader) ReadBlock(blk uint32) ([]byte, error) {
	s := &c.shards[blk%cacheShardCount]
	s.mu.Lock()
	if r, ok := s.m[blk]; ok {
		s.mu.Unlock()
		return r.data, r.err
	}
	s.mu.Unlock()
	data, err := c.dev.ReadBlock(blk)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.m[blk]; ok {
		// Another worker raced us to the same block; its outcome stands.
		return r.data, r.err
	}
	s.m[blk] = cachedBlock{data, err}
	return data, err
}

// CheckParallel validates the entire image like Check but with a worker
// pool prefetching the metadata the rule engine will read. It returns the
// identical report Check would produce on the same device; workers < 1 is
// clamped to 1 (a single prefetch worker still coalesces the table to one
// read per block where the sequential checker issues one read per inode).
func CheckParallel(dev blockdev.Device, workers int) *Report {
	if workers < 1 {
		workers = 1
	}
	src := newCachedReader(dev)
	prefetchImage(src, workers)
	rep := run(src)
	rep.Workers = workers
	return rep
}

// prefetchImage warms the cache for a full check: superblock, bitmaps, then
// the striped inode-table scan. Best effort — any failure outcome is cached
// and re-surfaced, with identical messages, by the merge.
func prefetchImage(src *cachedReader, workers int) {
	b, err := src.ReadBlock(0)
	if err != nil {
		return
	}
	sb, err := disklayout.DecodeSuperblock(b)
	if err != nil || sb.NumBlocks > src.NumBlocks() {
		return
	}
	for i := uint32(0); i < sb.InodeBitmapLen; i++ {
		src.ReadBlock(sb.InodeBitmapStart + i)
	}
	for i := uint32(0); i < sb.BlockBitmapLen; i++ {
		src.ReadBlock(sb.BlockBitmapStart + i)
	}
	blks := make([]uint32, sb.InodeTableLen)
	for i := range blks {
		blks[i] = sb.InodeTableStart + uint32(i)
	}
	scanTableBlocks(src, sb, workers, blks)
}

// scanTableBlocks stripes the given table blocks across the worker pool.
func scanTableBlocks(src *cachedReader, sb *disklayout.Superblock, workers int, blks []uint32) {
	var next atomic.Uint32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(blks) {
					return
				}
				scanTableBlock(src, sb, blks[i])
			}
		}()
	}
	wg.Wait()
}

// scanTableBlock reads one inode-table block and prefetches the blocks its
// records reference: indirect/double-indirect spines for claim walking, and
// directory payload blocks for the namespace walk. Over-prefetch (e.g. for
// a ghost inode the merge will not walk) is harmless — unused cache entries
// are never consulted; under-prefetch just falls back to a device read.
func scanTableBlock(src *cachedReader, sb *disklayout.Superblock, blk uint32) {
	b, err := src.ReadBlock(blk)
	if err != nil {
		return
	}
	inRange := func(p uint32) bool { return p >= sb.DataStart && p < sb.NumBlocks }
	base := (blk - sb.InodeTableStart) * disklayout.InodesPerBlock
	var rec disklayout.Inode // never kept: decode each record in place
	for s := 0; s < disklayout.InodesPerBlock; s++ {
		ino := base + uint32(s)
		if ino < 1 || ino >= sb.NumInodes {
			continue
		}
		if err := rec.Decode(b[s*disklayout.InodeSize : (s+1)*disklayout.InodeSize]); err != nil || rec.IsFree() {
			continue
		}
		if rec.IsExtents() {
			// Walk the overflow node chain so the merge's extent walk hits
			// the cache. Decode failures just stop the prefetch; the merge
			// re-reads and reports them.
			next := rec.Indirect
			for hops := 0; next != 0 && inRange(next) && hops < 64; hops++ {
				nb, err := src.ReadBlock(next)
				if err != nil {
					break
				}
				n, err := disklayout.DecodeExtentNode(nb)
				if err != nil {
					break
				}
				next = n.Next
			}
			continue
		}
		if rec.Indirect != 0 && inRange(rec.Indirect) {
			ib, err := src.ReadBlock(rec.Indirect)
			if err == nil && rec.IsDir() {
				// A directory's indirect spine is walked for dirent blocks.
				prefetchPtrs(src, sb, ib)
			}
		}
		if rec.DblIndir != 0 && inRange(rec.DblIndir) {
			if db, err := src.ReadBlock(rec.DblIndir); err == nil {
				// The L2 spine blocks are read during claim walking; their
				// pointees are data and never read.
				prefetchPtrs(src, sb, db)
			}
		}
		if rec.IsDir() {
			for _, p := range rec.Direct {
				if p != 0 {
					src.ReadBlock(p)
				}
			}
		}
	}
}

// prefetchPtrs reads every in-range pointer in an indirect block.
func prefetchPtrs(src *cachedReader, sb *disklayout.Superblock, b []byte) {
	for i := 0; i < disklayout.PtrsPerBlock; i++ {
		p := uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24
		if p != 0 && p >= sb.DataStart && p < sb.NumBlocks {
			src.ReadBlock(p)
		}
	}
}
