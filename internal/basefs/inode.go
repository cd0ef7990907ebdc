package basefs

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/disklayout"
	"repro/internal/fserr"
)

// getInode returns the cached inode for ino, reading through the inode cache
// and buffer cache on a miss. Decode always verifies the record checksum;
// pointer validation is left to sync validation, fsck and the shadow (the
// base's performance posture).
func (fs *FS) getInode(ino uint32) (*cache.CachedInode, error) {
	if ino == 0 || ino >= fs.sb.NumInodes {
		return nil, fmt.Errorf("basefs: inode %d out of range: %w", ino, fserr.ErrCorrupt)
	}
	if ci := fs.ic.Get(ino); ci != nil {
		return ci, nil
	}
	blk, off := fs.sb.InodeLoc(ino)
	buf, err := fs.bc.Get(blk)
	if err != nil {
		return nil, err
	}
	rec, err := disklayout.DecodeInode(buf.Data[off : off+disklayout.InodeSize])
	fs.bc.Release(buf)
	if err != nil {
		return nil, fmt.Errorf("basefs: inode %d: %w", ino, err)
	}
	ci := &cache.CachedInode{Ino: ino, Inode: *rec}
	return fs.ic.Put(ci), nil
}

// getAllocInode is getInode plus the check that the inode is actually
// allocated; reading a free inode through a live reference means the
// namespace is corrupt.
func (fs *FS) getAllocInode(ino uint32) (*cache.CachedInode, error) {
	ci, err := fs.getInode(ino)
	if err != nil {
		return nil, err
	}
	if ci.Inode.IsFree() {
		return nil, fmt.Errorf("basefs: inode %d is free but referenced: %w", ino, fserr.ErrCorrupt)
	}
	return ci, nil
}

// markInodeDirty flags the cached inode for write-back at the next sync.
func (fs *FS) markInodeDirty(ci *cache.CachedInode) { fs.ic.MarkDirty(ci) }

// writeInodeBack serializes a cached inode into its inode-table block buffer
// (the sync path calls this for every dirty inode).
func (fs *FS) writeInodeBack(ci *cache.CachedInode) error {
	blk, off := fs.sb.InodeLoc(ci.Ino)
	buf, err := fs.bc.Get(blk)
	if err != nil {
		return err
	}
	disklayout.PutInode(buf.Data[off:], &ci.Inode)
	fs.bc.MarkDirtyMeta(buf)
	fs.bc.Release(buf)
	return nil
}

// allocInode claims the lowest free inode number, initializes its cached
// record, and marks the bitmap dirty. The caller links it into the
// namespace or rolls back with freeInode.
func (fs *FS) allocInode(typ, perm uint16) (*cache.CachedInode, error) {
	fs.allocMu.Lock()
	defer fs.allocMu.Unlock()
	for rel := uint32(0); rel < fs.sb.InodeBitmapLen; rel++ {
		buf, err := fs.bc.Get(fs.sb.InodeBitmapStart + rel)
		if err != nil {
			return nil, err
		}
		limit := fs.sb.NumInodes - rel*disklayout.BitsPerBlock
		if limit > disklayout.BitsPerBlock {
			limit = disklayout.BitsPerBlock
		}
		bit, ok := disklayout.FindFree(buf.Data, 0, limit)
		if !ok {
			fs.bc.Release(buf)
			continue
		}
		disklayout.SetBit(buf.Data, bit)
		fs.bc.MarkDirtyMeta(buf)
		fs.bc.Release(buf)
		ino := rel*disklayout.BitsPerBlock + bit
		ci := &cache.CachedInode{
			Ino: ino,
			Inode: disklayout.Inode{
				Mode: disklayout.MkMode(typ, perm&disklayout.ModePermMask),
			},
			Dirty: true,
		}
		// Reuse bumps the generation of whatever record was there before.
		if old := fs.ic.Get(ino); old != nil {
			ci.Inode.Generation = old.Inode.Generation + 1
			fs.ic.Drop(ino)
		}
		return fs.ic.Put(ci), nil
	}
	return nil, fserr.ErrNoSpace
}

// freeInode returns an inode number to the bitmap and writes a free record
// over it, dropping it from the cache.
func (fs *FS) freeInode(ci *cache.CachedInode) error {
	fs.allocMu.Lock()
	rel := ci.Ino / disklayout.BitsPerBlock
	buf, err := fs.bc.Get(fs.sb.InodeBitmapStart + rel)
	if err != nil {
		fs.allocMu.Unlock()
		return err
	}
	disklayout.ClearBit(buf.Data, ci.Ino%disklayout.BitsPerBlock)
	fs.bc.MarkDirtyMeta(buf)
	fs.bc.Release(buf)
	fs.allocMu.Unlock()

	gen := ci.Inode.Generation
	ci.Inode = disklayout.Inode{Generation: gen}
	fs.markInodeDirty(ci)
	if err := fs.writeInodeBack(ci); err != nil {
		return err
	}
	fs.ic.Drop(ci.Ino)
	return nil
}

// allocBlock claims the lowest free data block and marks the bitmap dirty.
// This is the legacy-layout path, where one physical block is one unit of
// the model's charge; it fails with ErrNoSpace when the logical budget is
// exhausted even if extent slack leaves physical blocks free.
func (fs *FS) allocBlock() (uint32, error) {
	fs.allocMu.Lock()
	defer fs.allocMu.Unlock()
	if fs.usedData+1 > fs.dataBlocks {
		return 0, fserr.ErrNoSpace
	}
	p, err := fs.allocBlockLocked()
	if err == nil {
		fs.usedData++
	}
	return p, err
}

func (fs *FS) allocBlockLocked() (uint32, error) {
	for rel := uint32(0); rel < fs.sb.BlockBitmapLen; rel++ {
		buf, err := fs.bc.Get(fs.sb.BlockBitmapStart + rel)
		if err != nil {
			return 0, err
		}
		limit := fs.sb.NumBlocks - rel*disklayout.BitsPerBlock
		if limit > disklayout.BitsPerBlock {
			limit = disklayout.BitsPerBlock
		}
		bit, ok := disklayout.FindFree(buf.Data, 0, limit)
		if !ok {
			fs.bc.Release(buf)
			continue
		}
		disklayout.SetBit(buf.Data, bit)
		fs.bc.MarkDirtyMeta(buf)
		fs.bc.Release(buf)
		return rel*disklayout.BitsPerBlock + bit, nil
	}
	return 0, fserr.ErrNoSpace
}

// freeBlock returns a data block to the bitmap, releases its unit of the
// logical charge (the legacy-path counterpart of allocBlock), and drops any
// cached buffer.
func (fs *FS) freeBlock(blk uint32) error {
	return fs.freeBlockCharged(blk, true)
}

func (fs *FS) freeBlockCharged(blk uint32, charge bool) error {
	if blk < fs.sb.DataStart || blk >= fs.sb.NumBlocks {
		return fmt.Errorf("basefs: freeing block %d outside data region: %w", blk, fserr.ErrCorrupt)
	}
	fs.allocMu.Lock()
	rel := blk / disklayout.BitsPerBlock
	buf, err := fs.bc.Get(fs.sb.BlockBitmapStart + rel)
	if err != nil {
		fs.allocMu.Unlock()
		return err
	}
	disklayout.ClearBit(buf.Data, blk%disklayout.BitsPerBlock)
	fs.bc.MarkDirtyMeta(buf)
	fs.bc.Release(buf)
	if charge {
		fs.usedData--
	}
	fs.allocMu.Unlock()
	fs.bc.Drop(blk)
	return nil
}

// checkPtr is the base's cheap block-validity guard (the analogue of ext4's
// block_validity): before using a mapped pointer it must land in the data
// region. Violations mean in-memory or on-disk corruption — a detectable
// runtime error.
func (fs *FS) checkPtr(ino, p uint32) error {
	if p < fs.sb.DataStart || p >= fs.sb.NumBlocks {
		return fmt.Errorf("basefs: inode %d maps block %d outside data region [%d,%d): %w",
			ino, p, fs.sb.DataStart, fs.sb.NumBlocks, fserr.ErrCorrupt)
	}
	return nil
}
