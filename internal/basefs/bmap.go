package basefs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cache"
	"repro/internal/disklayout"
	"repro/internal/fserr"
)

// bmap resolves a file block index to a physical block number. Holes resolve
// to 0. The caller holds either the namespace write lock or the inode lock.
func (fs *FS) bmap(ci *cache.CachedInode, idx int64) (uint32, error) {
	switch {
	case idx < 0 || idx >= disklayout.MaxFileBlocks:
		return 0, fmt.Errorf("basefs: block index %d out of range: %w", idx, fserr.ErrInvalid)

	case idx < disklayout.NumDirect:
		if p := ci.Inode.Direct[idx]; p != 0 {
			// The block_validity analogue: never hand out a mapping into the
			// metadata region, even from a crafted or corrupted inode.
			if err := fs.checkPtr(ci.Ino, p); err != nil {
				return 0, err
			}
		}
		return ci.Inode.Direct[idx], nil

	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		if ci.Inode.Indirect == 0 {
			return 0, nil
		}
		if err := fs.checkPtr(ci.Ino, ci.Inode.Indirect); err != nil {
			return 0, err
		}
		return fs.readPtr(ci.Inode.Indirect, idx-disklayout.NumDirect)

	default:
		if ci.Inode.DblIndir == 0 {
			return 0, nil
		}
		if err := fs.checkPtr(ci.Ino, ci.Inode.DblIndir); err != nil {
			return 0, err
		}
		rel := idx - disklayout.NumDirect - disklayout.PtrsPerBlock
		l2, err := fs.readPtr(ci.Inode.DblIndir, rel/disklayout.PtrsPerBlock)
		if err != nil || l2 == 0 {
			return 0, err
		}
		if err := fs.checkPtr(ci.Ino, l2); err != nil {
			return 0, err
		}
		return fs.readPtr(l2, rel%disklayout.PtrsPerBlock)
	}
}

// readPtr reads slot i of an indirect block.
func (fs *FS) readPtr(blk uint32, i int64) (uint32, error) {
	buf, err := fs.bc.Get(blk)
	if err != nil {
		return 0, err
	}
	p := binary.LittleEndian.Uint32(buf.Data[i*4:])
	fs.bc.Release(buf)
	if p != 0 {
		if err := fs.checkPtr(0, p); err != nil {
			return 0, err
		}
	}
	return p, nil
}

// writePtr stores p into slot i of an indirect block and dirties it.
func (fs *FS) writePtr(blk uint32, i int64, p uint32) error {
	buf, err := fs.bc.Get(blk)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf.Data[i*4:], p)
	fs.bc.MarkDirtyMeta(buf)
	fs.bc.Release(buf)
	return nil
}

// bmapAlloc resolves idx, materializing the data block (and any missing
// indirect blocks) if absent. On ENOSPC partway through the indirect chain
// it rolls the chain back so the space accounting matches a filesystem that
// never attempted the allocation (keeping ENOSPC timing identical to the
// specification model's).
func (fs *FS) bmapAlloc(ci *cache.CachedInode, idx int64) (uint32, error) {
	if idx < 0 || idx >= disklayout.MaxFileBlocks {
		return 0, fmt.Errorf("basefs: block index %d out of range: %w", idx, fserr.ErrInvalid)
	}
	if p, err := fs.bmap(ci, idx); err != nil || p != 0 {
		return p, err
	}
	var undo []uint32
	fail := func(err error) (uint32, error) {
		for i := len(undo) - 1; i >= 0; i-- {
			_ = fs.freeBlock(undo[i])
		}
		return 0, err
	}
	alloc := func() (uint32, error) {
		p, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		undo = append(undo, p)
		return p, nil
	}

	switch {
	case idx < disklayout.NumDirect:
		p, err := alloc()
		if err != nil {
			return fail(err)
		}
		ci.Inode.Direct[idx] = p
		fs.markInodeDirty(ci)
		fs.bc.Release(fs.zeroBlock(p, false))
		return p, nil

	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		if ci.Inode.Indirect == 0 {
			ib, err := alloc()
			if err != nil {
				return fail(err)
			}
			fs.bc.Release(fs.zeroBlock(ib, true))
			ci.Inode.Indirect = ib
			fs.markInodeDirty(ci)
		}
		p, err := alloc()
		if err != nil {
			// If we just created the indirect block for this allocation,
			// undo unwinds it; clear the inode pointer to match.
			if len(undo) == 1 {
				ci.Inode.Indirect = 0
			}
			return fail(err)
		}
		fs.bc.Release(fs.zeroBlock(p, false))
		if err := fs.writePtr(ci.Inode.Indirect, idx-disklayout.NumDirect, p); err != nil {
			return fail(err)
		}
		return p, nil

	default:
		rel := idx - disklayout.NumDirect - disklayout.PtrsPerBlock
		l2idx := rel / disklayout.PtrsPerBlock
		newDbl := false
		if ci.Inode.DblIndir == 0 {
			db, err := alloc()
			if err != nil {
				return fail(err)
			}
			fs.bc.Release(fs.zeroBlock(db, true))
			ci.Inode.DblIndir = db
			fs.markInodeDirty(ci)
			newDbl = true
		}
		l2, err := fs.readPtr(ci.Inode.DblIndir, l2idx)
		if err != nil {
			return fail(err)
		}
		newL2 := false
		if l2 == 0 {
			l2, err = alloc()
			if err != nil {
				if newDbl {
					ci.Inode.DblIndir = 0
				}
				return fail(err)
			}
			fs.bc.Release(fs.zeroBlock(l2, true))
			if err := fs.writePtr(ci.Inode.DblIndir, l2idx, l2); err != nil {
				return fail(err)
			}
			newL2 = true
		}
		p, err := alloc()
		if err != nil {
			if newL2 {
				_ = fs.writePtr(ci.Inode.DblIndir, l2idx, 0)
			}
			if newDbl {
				ci.Inode.DblIndir = 0
			}
			return fail(err)
		}
		fs.bc.Release(fs.zeroBlock(p, false))
		if err := fs.writePtr(l2, rel%disklayout.PtrsPerBlock, p); err != nil {
			return fail(err)
		}
		return p, nil
	}
}

// zeroBlock returns a pinned, zeroed, dirty buffer for a freshly allocated
// block (never reading stale device contents).
func (fs *FS) zeroBlock(blk uint32, meta bool) *cache.Buf {
	buf := fs.bc.GetNew(blk)
	clear(buf.Data)
	if meta {
		fs.bc.MarkDirtyMeta(buf)
	} else {
		fs.bc.MarkDirty(buf)
	}
	return buf
}

// truncateBlocks frees every mapped block at index >= keep and prunes
// now-empty indirect blocks. The caller updates size and zeroes the tail of
// the last kept block.
func (fs *FS) truncateBlocks(ci *cache.CachedInode, keep int64) error {
	for i := keep; i < disklayout.NumDirect; i++ {
		if p := ci.Inode.Direct[i]; p != 0 {
			if err := fs.freeBlock(p); err != nil {
				return err
			}
			ci.Inode.Direct[i] = 0
		}
	}
	if ci.Inode.Indirect != 0 {
		empty, err := fs.truncateIndirect(ci.Inode.Indirect, keep-disklayout.NumDirect)
		if err != nil {
			return err
		}
		if empty {
			if err := fs.freeBlock(ci.Inode.Indirect); err != nil {
				return err
			}
			ci.Inode.Indirect = 0
		}
	}
	if ci.Inode.DblIndir != 0 {
		relKeep := keep - disklayout.NumDirect - disklayout.PtrsPerBlock
		empty, err := fs.truncateDouble(ci.Inode.DblIndir, relKeep)
		if err != nil {
			return err
		}
		if empty {
			if err := fs.freeBlock(ci.Inode.DblIndir); err != nil {
				return err
			}
			ci.Inode.DblIndir = 0
		}
	}
	fs.markInodeDirty(ci)
	return nil
}

// truncateIndirect frees pointers at slot >= keep in one indirect block and
// reports whether the block is now entirely empty.
func (fs *FS) truncateIndirect(blk uint32, keep int64) (empty bool, err error) {
	if err := fs.checkPtr(0, blk); err != nil {
		return false, err
	}
	buf, err := fs.bc.Get(blk)
	if err != nil {
		return false, err
	}
	le := binary.LittleEndian
	dirty := false
	empty = true
	for i := int64(0); i < disklayout.PtrsPerBlock; i++ {
		p := le.Uint32(buf.Data[i*4:])
		if p == 0 {
			continue
		}
		if i >= keep {
			if err := fs.freeBlock(p); err != nil {
				fs.bc.Release(buf)
				return false, err
			}
			le.PutUint32(buf.Data[i*4:], 0)
			dirty = true
		} else {
			empty = false
		}
	}
	if dirty {
		fs.bc.MarkDirtyMeta(buf)
	}
	fs.bc.Release(buf)
	return empty, nil
}

// truncateDouble frees data blocks at relative index >= relKeep under a
// double-indirect block, pruning empty second-level blocks.
func (fs *FS) truncateDouble(blk uint32, relKeep int64) (empty bool, err error) {
	if err := fs.checkPtr(0, blk); err != nil {
		return false, err
	}
	buf, err := fs.bc.Get(blk)
	if err != nil {
		return false, err
	}
	le := binary.LittleEndian
	dirty := false
	empty = true
	for i := int64(0); i < disklayout.PtrsPerBlock; i++ {
		l2 := le.Uint32(buf.Data[i*4:])
		if l2 == 0 {
			continue
		}
		keepInL2 := relKeep - i*disklayout.PtrsPerBlock
		l2empty, err := fs.truncateIndirect(l2, keepInL2)
		if err != nil {
			fs.bc.Release(buf)
			return false, err
		}
		if l2empty {
			if err := fs.freeBlock(l2); err != nil {
				fs.bc.Release(buf)
				return false, err
			}
			le.PutUint32(buf.Data[i*4:], 0)
			dirty = true
		} else {
			empty = false
		}
	}
	if dirty {
		fs.bc.MarkDirtyMeta(buf)
	}
	fs.bc.Release(buf)
	return empty, nil
}

// freeAllBlocks releases every block an inode maps (unlink of the last
// reference or replacement by rename), whichever layout it uses.
func (fs *FS) freeAllBlocks(ci *cache.CachedInode) error {
	if ci.Inode.IsExtents() {
		if err := fs.truncateExtents(ci, 0); err != nil {
			return err
		}
		fs.dropDelFile(ci.Ino)
		return nil
	}
	return fs.truncateBlocks(ci, 0)
}
