package basefs

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// dirLookup finds name in the directory, consulting the dentry cache first
// (including negative entries) and falling back to a block scan. The caller
// holds at least the read lock.
func (fs *FS) dirLookup(dir *cache.CachedInode, name string) (uint32, error) {
	if ino, negative, found := fs.dc.Lookup(dir.Ino, name); found {
		if negative {
			return 0, fserr.ErrNotExist
		}
		return ino, nil
	}
	ino, _, _, err := fs.dirScan(dir, name)
	if err != nil {
		if err == fserr.ErrNotExist {
			fs.dc.AddNegative(dir.Ino, name)
		}
		return 0, err
	}
	fs.dc.Add(dir.Ino, name, ino)
	return ino, nil
}

// dirScan walks the directory's blocks for name, returning the child ino
// and the (block index, slot) where the entry lives.
func (fs *FS) dirScan(dir *cache.CachedInode, name string) (ino uint32, blkIdx int64, slot int, err error) {
	nblocks := dir.Inode.Size / disklayout.BlockSize
	for bi := int64(0); bi < nblocks; bi++ {
		p, err := fs.bmap(dir, bi)
		if err != nil {
			return 0, 0, 0, err
		}
		if p == 0 {
			return 0, 0, 0, fmt.Errorf("basefs: directory %d has hole at block %d: %w", dir.Ino, bi, fserr.ErrCorrupt)
		}
		buf, err := fs.bc.Get(p)
		if err != nil {
			return 0, 0, 0, err
		}
		for s := 0; s < disklayout.DirentsPerBlock; s++ {
			d, derr := disklayout.DecodeDirent(buf.Data[s*disklayout.DirentSize:])
			if derr != nil {
				continue // performance posture: skip undecodable entries
			}
			if d.Ino != 0 && d.Name == name {
				fs.bc.Release(buf)
				return d.Ino, bi, s, nil
			}
		}
		fs.bc.Release(buf)
	}
	return 0, 0, 0, fserr.ErrNotExist
}

// dirInsert adds (name -> ino) in the first free slot, extending the
// directory by one block if full. The caller holds the write lock and has
// verified absence.
func (fs *FS) dirInsert(dir *cache.CachedInode, name string, ino uint32) error {
	nblocks := dir.Inode.Size / disklayout.BlockSize
	for bi := int64(0); bi < nblocks; bi++ {
		p, err := fs.bmap(dir, bi)
		if err != nil {
			return err
		}
		if p == 0 {
			return fmt.Errorf("basefs: directory %d has hole at block %d: %w", dir.Ino, bi, fserr.ErrCorrupt)
		}
		buf, err := fs.bc.Get(p)
		if err != nil {
			return err
		}
		for s := 0; s < disklayout.DirentsPerBlock; s++ {
			d, derr := disklayout.DecodeDirent(buf.Data[s*disklayout.DirentSize:])
			if derr == nil && d.Ino == 0 {
				disklayout.EncodeDirent(buf.Data[s*disklayout.DirentSize:], disklayout.Dirent{Ino: ino, Name: name})
				fs.bc.MarkDirtyMeta(buf)
				fs.bc.Release(buf)
				fs.dc.Add(dir.Ino, name, ino)
				return nil
			}
		}
		fs.bc.Release(buf)
	}
	// All slots full: extend the directory.
	p, err := fs.bmapAlloc(dir, nblocks)
	if err != nil {
		return err
	}
	buf, err := fs.bc.Get(p)
	if err != nil {
		return err
	}
	disklayout.EncodeDirent(buf.Data, disklayout.Dirent{Ino: ino, Name: name})
	fs.bc.MarkDirtyMeta(buf)
	fs.bc.Release(buf)
	dir.Inode.Size += disklayout.BlockSize
	fs.markInodeDirty(dir)
	fs.dc.Add(dir.Ino, name, ino)
	return nil
}

// dirRemove deletes name's entry, leaving a reusable tombstone slot
// (directories never shrink, as in ext2).
func (fs *FS) dirRemove(dir *cache.CachedInode, name string) error {
	_, bi, slot, err := fs.dirScan(dir, name)
	if err != nil {
		return err
	}
	p, err := fs.bmap(dir, bi)
	if err != nil {
		return err
	}
	buf, err := fs.bc.Get(p)
	if err != nil {
		return err
	}
	for i := slot * disklayout.DirentSize; i < (slot+1)*disklayout.DirentSize; i++ {
		buf.Data[i] = 0
	}
	fs.bc.MarkDirtyMeta(buf)
	fs.bc.Release(buf)
	fs.dc.Invalidate(dir.Ino, name)
	return nil
}

// dirReplace atomically points name's existing slot at a new inode (the
// rename-over-target case), preserving slot position so listing order
// matches the in-place-replace semantics of the specification model.
func (fs *FS) dirReplace(dir *cache.CachedInode, name string, ino uint32) error {
	_, bi, slot, err := fs.dirScan(dir, name)
	if err != nil {
		return err
	}
	p, err := fs.bmap(dir, bi)
	if err != nil {
		return err
	}
	buf, err := fs.bc.Get(p)
	if err != nil {
		return err
	}
	disklayout.EncodeDirent(buf.Data[slot*disklayout.DirentSize:], disklayout.Dirent{Ino: ino, Name: name})
	fs.bc.MarkDirtyMeta(buf)
	fs.bc.Release(buf)
	fs.dc.Add(dir.Ino, name, ino)
	return nil
}

// dirIsEmpty reports whether the directory has no live entries.
func (fs *FS) dirIsEmpty(dir *cache.CachedInode) (bool, error) {
	nblocks := dir.Inode.Size / disklayout.BlockSize
	for bi := int64(0); bi < nblocks; bi++ {
		p, err := fs.bmap(dir, bi)
		if err != nil {
			return false, err
		}
		if p == 0 {
			continue
		}
		buf, err := fs.bc.Get(p)
		if err != nil {
			return false, err
		}
		for s := 0; s < disklayout.DirentsPerBlock; s++ {
			d, derr := disklayout.DecodeDirent(buf.Data[s*disklayout.DirentSize:])
			if derr == nil && d.Ino != 0 {
				fs.bc.Release(buf)
				return false, nil
			}
		}
		fs.bc.Release(buf)
	}
	return true, nil
}

// dirList returns all live entries in slot order with each child's type.
func (fs *FS) dirList(dir *cache.CachedInode) ([]fsapi.DirEntry, error) {
	var out []fsapi.DirEntry
	nblocks := dir.Inode.Size / disklayout.BlockSize
	for bi := int64(0); bi < nblocks; bi++ {
		p, err := fs.bmap(dir, bi)
		if err != nil {
			return nil, err
		}
		if p == 0 {
			continue
		}
		buf, err := fs.bc.Get(p)
		if err != nil {
			return nil, err
		}
		for s := 0; s < disklayout.DirentsPerBlock; s++ {
			d, derr := disklayout.DecodeDirent(buf.Data[s*disklayout.DirentSize:])
			if derr != nil || d.Ino == 0 {
				continue
			}
			out = append(out, fsapi.DirEntry{Name: d.Name, Ino: d.Ino})
		}
		fs.bc.Release(buf)
	}
	for i := range out {
		child, err := fs.getAllocInode(out[i].Ino)
		if err != nil {
			return nil, err
		}
		out[i].Type = child.Inode.Type()
	}
	return out, nil
}

// walk resolves path components to an inode, requiring intermediate
// components to be directories.
func (fs *FS) walk(comps []string) (*cache.CachedInode, error) {
	cur, err := fs.getAllocInode(fs.sb.RootIno)
	if err != nil {
		return nil, err
	}
	for _, c := range comps {
		if !cur.Inode.IsDir() {
			return nil, fserr.ErrNotDir
		}
		ino, err := fs.dirLookup(cur, c)
		if err != nil {
			return nil, err
		}
		cur, err = fs.getAllocInode(ino)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// pathDepth is the component count walkPath and walkParent split into an
// array on the stack; a deeper path spills to the heap.
const pathDepth = 16

// walkPath is walk over a raw path string.
func (fs *FS) walkPath(path string) (*cache.CachedInode, error) {
	var buf [pathDepth]string
	comps, err := fsapi.SplitPath(buf[:0], path)
	if err != nil {
		return nil, err
	}
	return fs.walk(comps)
}

// walkParent resolves path to (parent directory, final component).
func (fs *FS) walkParent(path string) (*cache.CachedInode, string, error) {
	var buf [pathDepth]string
	dir, base, err := fsapi.SplitDirBase(buf[:0], path)
	if err != nil {
		return nil, "", err
	}
	if err := disklayout.ValidName(base); err != nil {
		return nil, "", err
	}
	parent, err := fs.walk(dir)
	if err != nil {
		return nil, "", err
	}
	if !parent.Inode.IsDir() {
		return nil, "", fserr.ErrNotDir
	}
	return parent, base, nil
}
