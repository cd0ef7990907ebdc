package basefs

import (
	"repro/internal/cache"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// Mkdir implements fsapi.FS.
func (fs *FS) Mkdir(path string, perm uint16) error {
	t := fs.opTimer(opMkdir)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "mkdir", Point: "entry", Path: path}); err != nil {
		return err
	}
	parent, name, err := fs.walkParent(path)
	if err != nil {
		return err
	}
	if _, err := fs.dirLookup(parent, name); err == nil {
		return fserr.ErrExist
	} else if err != fserr.ErrNotExist {
		return err
	}
	ci, err := fs.allocInode(disklayout.TypeDir, perm)
	if err != nil {
		return err
	}
	ci.Inode.Nlink = 2
	if err := fs.fire(&faultinject.Site{
		Op: "mkdir", Point: "alloc", Path: path,
		InodeSize: &ci.Inode.Size, InodePtr: &ci.Inode.Direct[0],
	}); err != nil {
		return err
	}
	if err := fs.dirInsert(parent, name, ci.Ino); err != nil {
		_ = fs.freeInode(ci)
		return err
	}
	now := fs.tick()
	ci.Inode.Mtime, ci.Inode.Ctime = now, now
	parent.Inode.Nlink++
	parent.Inode.Mtime, parent.Inode.Ctime = now, now
	fs.markInodeDirty(parent)
	fs.markInodeDirty(ci)
	return fs.fire(&faultinject.Site{Op: "mkdir", Point: "exit", Path: path})
}

// Rmdir implements fsapi.FS.
func (fs *FS) Rmdir(path string) error {
	t := fs.opTimer(opRmdir)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "rmdir", Point: "entry", Path: path}); err != nil {
		return err
	}
	parent, name, err := fs.walkParent(path)
	if err != nil {
		return err
	}
	ino, err := fs.dirLookup(parent, name)
	if err != nil {
		return err
	}
	ci, err := fs.getAllocInode(ino)
	if err != nil {
		return err
	}
	if !ci.Inode.IsDir() {
		return fserr.ErrNotDir
	}
	empty, err := fs.dirIsEmpty(ci)
	if err != nil {
		return err
	}
	if !empty {
		return fserr.ErrNotEmpty
	}
	if err := fs.dirRemove(parent, name); err != nil {
		return err
	}
	fs.dc.InvalidateDir(ino)
	// Free the directory's blocks and inode.
	if err := fs.freeAllBlocks(ci); err != nil {
		return err
	}
	if err := fs.freeInode(ci); err != nil {
		return err
	}
	now := fs.tick()
	parent.Inode.Nlink--
	parent.Inode.Mtime, parent.Inode.Ctime = now, now
	fs.markInodeDirty(parent)
	return fs.fire(&faultinject.Site{Op: "rmdir", Point: "exit", Path: path})
}

// Create implements fsapi.FS.
func (fs *FS) Create(path string, perm uint16) (fsapi.FD, error) {
	t := fs.opTimer(opCreate)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "create", Point: "entry", Path: path}); err != nil {
		return -1, err
	}
	parent, name, err := fs.walkParent(path)
	if err != nil {
		return -1, err
	}
	if _, err := fs.dirLookup(parent, name); err == nil {
		return -1, fserr.ErrExist
	} else if err != fserr.ErrNotExist {
		return -1, err
	}
	ci, err := fs.allocInode(disklayout.TypeFile, perm)
	if err != nil {
		return -1, err
	}
	ci.Inode.Nlink = 1
	if !fs.opts.LegacyLayout {
		ci.Inode.Flags |= disklayout.FlagExtents
		fs.telExtFiles.Inc()
	}
	if err := fs.fire(&faultinject.Site{
		Op: "create", Point: "alloc", Path: path,
		InodeSize: &ci.Inode.Size, InodePtr: &ci.Inode.Direct[0],
	}); err != nil {
		return -1, err
	}
	if err := fs.dirInsert(parent, name, ci.Ino); err != nil {
		_ = fs.freeInode(ci)
		return -1, err
	}
	now := fs.tick()
	ci.Inode.Mtime, ci.Inode.Ctime = now, now
	parent.Inode.Mtime, parent.Inode.Ctime = now, now
	fs.markInodeDirty(parent)
	fs.markInodeDirty(ci)
	fd := fs.allocFDLocked()
	fs.fds[fd] = &fdEntry{ino: ci.Ino}
	ci.Opens++
	if err := fs.fire(&faultinject.Site{Op: "create", Point: "exit", Path: path}); err != nil {
		return -1, err
	}
	return fd, nil
}

// Open implements fsapi.FS.
func (fs *FS) Open(path string) (fsapi.FD, error) {
	t := fs.opTimer(opOpen)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "open", Point: "entry", Path: path}); err != nil {
		return -1, err
	}
	ci, err := fs.walkPath(path)
	if err != nil {
		return -1, err
	}
	switch ci.Inode.Type() {
	case disklayout.TypeDir:
		return -1, fserr.ErrIsDir
	case disklayout.TypeSym:
		return -1, fserr.ErrInvalid
	}
	fd := fs.allocFDLocked()
	fs.fds[fd] = &fdEntry{ino: ci.Ino}
	ci.Opens++
	return fd, nil
}

func (fs *FS) allocFDLocked() fsapi.FD {
	for fd := fsapi.FD(0); ; fd++ {
		if _, used := fs.fds[fd]; !used {
			return fd
		}
	}
}

// Close implements fsapi.FS.
func (fs *FS) Close(fd fsapi.FD) error {
	t := fs.opTimer(opClose)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, ok := fs.fds[fd]
	if !ok {
		return errBadFD(fd)
	}
	delete(fs.fds, fd)
	ci, err := fs.getAllocInode(e.ino)
	if err != nil {
		return err
	}
	ci.Opens--
	if ci.Inode.Nlink == 0 && ci.Opens == 0 {
		// Last reference to an orphan: release its storage.
		if err := fs.freeAllBlocks(ci); err != nil {
			return err
		}
		if ci.Inode.Type() == disklayout.TypeSym {
			// Symlink targets live in Direct[0], freed by freeAllBlocks.
			_ = ci
		}
		if err := fs.freeInode(ci); err != nil {
			return err
		}
	}
	return nil
}

// lookupFD resolves a descriptor to its inode under the read lock.
func (fs *FS) lookupFD(fd fsapi.FD) (*cache.CachedInode, error) {
	e, ok := fs.fds[fd]
	if !ok {
		return nil, errBadFD(fd)
	}
	return fs.getAllocInode(e.ino)
}

// ReadAt implements fsapi.FS. Reads of holes return zeros; reads never
// update atime (noatime semantics).
func (fs *FS) ReadAt(fd fsapi.FD, off int64, n int) ([]byte, error) {
	t := fs.opTimer(opReadAt)
	defer t.Stop()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if err := fs.fire(&faultinject.Site{Op: "readat", Point: "entry"}); err != nil {
		return nil, err
	}
	ci, err := fs.lookupFD(fd)
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 {
		return nil, fserr.ErrInvalid
	}
	ci.Mu.Lock()
	defer ci.Mu.Unlock()
	size := ci.Inode.Size
	if off >= size {
		return []byte{}, nil
	}
	end := off + int64(n)
	if end > size {
		end = size
	}
	out := make([]byte, end-off)
	if ci.Inode.IsExtents() {
		if err := fs.extReadInto(ci, off, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	for pos := off; pos < end; {
		bi := pos / disklayout.BlockSize
		boff := pos % disklayout.BlockSize
		chunk := disklayout.BlockSize - boff
		if pos+chunk > end {
			chunk = end - pos
		}
		p, err := fs.bmap(ci, bi)
		if err != nil {
			return nil, err
		}
		if p != 0 {
			buf, err := fs.bc.Get(p)
			if err != nil {
				return nil, err
			}
			copy(out[pos-off:], buf.Data[boff:boff+chunk])
			fs.bc.Release(buf)
		}
		pos += chunk
	}
	return out, nil
}

// WriteAt implements fsapi.FS, block by block so a mid-write ENOSPC yields
// the same short-write outcome as the specification model.
func (fs *FS) WriteAt(fd fsapi.FD, off int64, data []byte) (int, error) {
	t := fs.opTimer(opWriteAt)
	defer t.Stop()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if err := fs.fire(&faultinject.Site{Op: "writeat", Point: "entry"}); err != nil {
		return 0, err
	}
	ci, err := fs.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fserr.ErrInvalid
	}
	if len(data) == 0 {
		return 0, nil
	}
	if off+int64(len(data)) > disklayout.MaxFileSize {
		return 0, fserr.ErrTooBig
	}
	ci.Mu.Lock()
	defer ci.Mu.Unlock()
	// The corruption target must be a pointer word the sync path persists
	// as-is: on extent inodes Direct[0] is inline-extent storage that
	// materialization rewrites, so scribble DblIndir (must be zero there)
	// instead.
	ptrWord := &ci.Inode.Direct[0]
	if ci.Inode.IsExtents() {
		ptrWord = &ci.Inode.DblIndir
	}
	if err := fs.fire(&faultinject.Site{
		Op: "writeat", Point: "inode",
		InodeSize: &ci.Inode.Size, InodePtr: ptrWord,
	}); err != nil {
		return 0, err
	}
	written := 0
	end := off + int64(len(data))
	var werr error
	if ci.Inode.IsExtents() {
		written, werr = fs.extWriteBlocks(ci, off, data)
	} else {
		for pos := off; pos < end; {
			bi := pos / disklayout.BlockSize
			boff := pos % disklayout.BlockSize
			chunk := disklayout.BlockSize - boff
			if pos+chunk > end {
				chunk = end - pos
			}
			p, err := fs.bmapAlloc(ci, bi)
			if err != nil {
				werr = err
				break
			}
			buf, err := fs.bc.Get(p)
			if err != nil {
				werr = err
				break
			}
			copy(buf.Data[boff:boff+chunk], data[written:written+int(chunk)])
			fs.bc.MarkDirty(buf)
			fs.bc.Release(buf)
			written += int(chunk)
			pos += chunk
		}
	}
	if written > 0 {
		if off+int64(written) > ci.Inode.Size {
			ci.Inode.Size = off + int64(written)
		}
		now := fs.tick()
		ci.Inode.Mtime, ci.Inode.Ctime = now, now
		fs.markInodeDirty(ci)
	}
	return written, werr
}

// Truncate implements fsapi.FS.
func (fs *FS) Truncate(path string, size int64) error {
	t := fs.opTimer(opTruncate)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "truncate", Point: "entry", Path: path}); err != nil {
		return err
	}
	ci, err := fs.walkPath(path)
	if err != nil {
		return err
	}
	if ci.Inode.IsDir() {
		return fserr.ErrIsDir
	}
	if !ci.Inode.IsFile() {
		return fserr.ErrInvalid
	}
	if size < 0 || size > disklayout.MaxFileSize {
		return fserr.ErrInvalid
	}
	old := ci.Inode.Size
	switch {
	case size < old:
		keep := (size + disklayout.BlockSize - 1) / disklayout.BlockSize
		if ci.Inode.IsExtents() {
			if err := fs.truncateExtents(ci, keep); err != nil {
				return err
			}
		} else if err := fs.truncateBlocks(ci, keep); err != nil {
			return err
		}
		// Zero the tail of the last kept block so a later extension reads
		// zeros, as POSIX requires. A truncate can demote an over-fragmented
		// extent file, so re-check the layout here.
		if ci.Inode.IsExtents() {
			if err := fs.extZeroTail(ci, size); err != nil {
				return err
			}
		} else if tail := size % disklayout.BlockSize; tail != 0 {
			p, err := fs.bmap(ci, size/disklayout.BlockSize)
			if err != nil {
				return err
			}
			if p != 0 {
				buf, err := fs.bc.Get(p)
				if err != nil {
					return err
				}
				for i := tail; i < disklayout.BlockSize; i++ {
					buf.Data[i] = 0
				}
				fs.bc.MarkDirty(buf)
				fs.bc.Release(buf)
			}
		}
		ci.Inode.Size = size
	case size > old:
		ci.Inode.Size = size // extension is a hole
	}
	now := fs.tick()
	ci.Inode.Mtime, ci.Inode.Ctime = now, now
	fs.markInodeDirty(ci)
	return nil
}

// Unlink implements fsapi.FS. An inode that is still open survives as an
// orphan until its last descriptor closes.
func (fs *FS) Unlink(path string) error {
	t := fs.opTimer(opUnlink)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "unlink", Point: "entry", Path: path}); err != nil {
		return err
	}
	parent, name, err := fs.walkParent(path)
	if err != nil {
		return err
	}
	ino, err := fs.dirLookup(parent, name)
	if err != nil {
		return err
	}
	ci, err := fs.getAllocInode(ino)
	if err != nil {
		return err
	}
	if ci.Inode.IsDir() {
		return fserr.ErrIsDir
	}
	if err := fs.dirRemove(parent, name); err != nil {
		return err
	}
	now := fs.tick()
	ci.Inode.Nlink--
	ci.Inode.Ctime = now
	parent.Inode.Mtime, parent.Inode.Ctime = now, now
	fs.markInodeDirty(parent)
	if err := fs.fire(&faultinject.Site{Op: "unlink", Point: "drop", Path: path,
		InodeSize: &ci.Inode.Size, InodePtr: &ci.Inode.Direct[0]}); err != nil {
		return err
	}
	if ci.Inode.Nlink == 0 && ci.Opens == 0 {
		if err := fs.freeAllBlocks(ci); err != nil {
			return err
		}
		return fs.freeInode(ci)
	}
	fs.markInodeDirty(ci)
	return nil
}

// Rename implements fsapi.FS.
func (fs *FS) Rename(oldPath, newPath string) error {
	t := fs.opTimer(opRename)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "rename", Point: "entry", Path: oldPath}); err != nil {
		return err
	}
	oldComps, err := fsapi.SplitPath(nil, oldPath)
	if err != nil {
		return err
	}
	newComps, err := fsapi.SplitPath(nil, newPath)
	if err != nil {
		return err
	}
	if len(oldComps) == 0 || len(newComps) == 0 {
		return fserr.ErrInvalid
	}
	if pathEqual(oldComps, newComps) {
		if _, err := fs.walk(oldComps); err != nil {
			return err
		}
		return nil
	}
	if len(newComps) > len(oldComps) && pathEqual(oldComps, newComps[:len(oldComps)]) {
		return fserr.ErrInvalid
	}
	oldParent, err := fs.walk(oldComps[:len(oldComps)-1])
	if err != nil {
		return err
	}
	if !oldParent.Inode.IsDir() {
		return fserr.ErrNotDir
	}
	oldName := oldComps[len(oldComps)-1]
	srcIno, err := fs.dirLookup(oldParent, oldName)
	if err != nil {
		return err
	}
	src, err := fs.getAllocInode(srcIno)
	if err != nil {
		return err
	}
	newParent, err := fs.walk(newComps[:len(newComps)-1])
	if err != nil {
		return err
	}
	if !newParent.Inode.IsDir() {
		return fserr.ErrNotDir
	}
	newName := newComps[len(newComps)-1]
	if err := disklayout.ValidName(newName); err != nil {
		return err
	}
	if dstIno, err := fs.dirLookup(newParent, newName); err == nil {
		if dstIno == srcIno {
			return nil // hard links to the same inode
		}
		dst, err := fs.getAllocInode(dstIno)
		if err != nil {
			return err
		}
		if src.Inode.IsDir() {
			if !dst.Inode.IsDir() {
				return fserr.ErrNotDir
			}
			empty, err := fs.dirIsEmpty(dst)
			if err != nil {
				return err
			}
			if !empty {
				return fserr.ErrNotEmpty
			}
		} else if dst.Inode.IsDir() {
			return fserr.ErrIsDir
		}
		// Point the existing slot at src, then drop the old target.
		if err := fs.dirReplace(newParent, newName, srcIno); err != nil {
			return err
		}
		if dst.Inode.IsDir() {
			newParent.Inode.Nlink--
			fs.dc.InvalidateDir(dstIno)
			dst.Inode.Nlink = 0
		} else {
			dst.Inode.Nlink--
		}
		if dst.Inode.Nlink == 0 && dst.Opens == 0 {
			if err := fs.freeAllBlocks(dst); err != nil {
				return err
			}
			if err := fs.freeInode(dst); err != nil {
				return err
			}
		} else {
			fs.markInodeDirty(dst)
		}
	} else if err != fserr.ErrNotExist {
		return err
	} else {
		if err := fs.dirInsert(newParent, newName, srcIno); err != nil {
			return err
		}
	}
	if err := fs.dirRemove(oldParent, oldName); err != nil {
		return err
	}
	if src.Inode.IsDir() && oldParent != newParent {
		oldParent.Inode.Nlink--
		newParent.Inode.Nlink++
	}
	now := fs.tick()
	src.Inode.Ctime = now
	oldParent.Inode.Mtime, oldParent.Inode.Ctime = now, now
	newParent.Inode.Mtime, newParent.Inode.Ctime = now, now
	fs.markInodeDirty(src)
	fs.markInodeDirty(oldParent)
	fs.markInodeDirty(newParent)
	return fs.fire(&faultinject.Site{Op: "rename", Point: "exit", Path: newPath})
}

func pathEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Link implements fsapi.FS.
func (fs *FS) Link(oldPath, newPath string) error {
	t := fs.opTimer(opLink)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "link", Point: "entry", Path: oldPath}); err != nil {
		return err
	}
	src, err := fs.walkPath(oldPath)
	if err != nil {
		return err
	}
	if src.Inode.IsDir() {
		return fserr.ErrIsDir
	}
	parent, name, err := fs.walkParent(newPath)
	if err != nil {
		return err
	}
	if _, err := fs.dirLookup(parent, name); err == nil {
		return fserr.ErrExist
	} else if err != fserr.ErrNotExist {
		return err
	}
	if err := fs.dirInsert(parent, name, src.Ino); err != nil {
		return err
	}
	now := fs.tick()
	src.Inode.Nlink++
	src.Inode.Ctime = now
	parent.Inode.Mtime, parent.Inode.Ctime = now, now
	fs.markInodeDirty(src)
	fs.markInodeDirty(parent)
	return nil
}

// Symlink implements fsapi.FS. The target occupies one data block.
func (fs *FS) Symlink(target, linkPath string) error {
	t := fs.opTimer(opSymlink)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "symlink", Point: "entry", Path: linkPath}); err != nil {
		return err
	}
	if len(target) > disklayout.BlockSize {
		return fserr.ErrNameTooLong
	}
	if target == "" {
		return fserr.ErrInvalid
	}
	parent, name, err := fs.walkParent(linkPath)
	if err != nil {
		return err
	}
	if _, err := fs.dirLookup(parent, name); err == nil {
		return fserr.ErrExist
	} else if err != fserr.ErrNotExist {
		return err
	}
	ci, err := fs.allocInode(disklayout.TypeSym, 0o777)
	if err != nil {
		return err
	}
	ci.Inode.Nlink = 1
	blk, err := fs.allocBlock()
	if err != nil {
		_ = fs.freeInode(ci)
		return err
	}
	buf := fs.zeroBlock(blk, false)
	copy(buf.Data, target)
	fs.bc.Release(buf)
	ci.Inode.Direct[0] = blk
	ci.Inode.Size = int64(len(target))
	if err := fs.dirInsert(parent, name, ci.Ino); err != nil {
		_ = fs.freeBlock(blk)
		_ = fs.freeInode(ci)
		return err
	}
	now := fs.tick()
	ci.Inode.Mtime, ci.Inode.Ctime = now, now
	parent.Inode.Mtime, parent.Inode.Ctime = now, now
	fs.markInodeDirty(parent)
	fs.markInodeDirty(ci)
	return nil
}

// Readlink implements fsapi.FS.
func (fs *FS) Readlink(path string) (string, error) {
	t := fs.opTimer(opReadlink)
	defer t.Stop()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ci, err := fs.walkPath(path)
	if err != nil {
		return "", err
	}
	if ci.Inode.Type() != disklayout.TypeSym {
		return "", fserr.ErrInvalid
	}
	if ci.Inode.Direct[0] == 0 {
		return "", fserr.ErrCorrupt
	}
	buf, err := fs.bc.Get(ci.Inode.Direct[0])
	if err != nil {
		return "", err
	}
	target := string(buf.Data[:ci.Inode.Size])
	fs.bc.Release(buf)
	return target, nil
}

func (fs *FS) statOf(ci *cache.CachedInode) fsapi.Stat {
	return fsapi.Stat{
		Ino:   ci.Ino,
		Mode:  ci.Inode.Mode,
		Nlink: ci.Inode.Nlink,
		Size:  ci.Inode.Size,
		Mtime: ci.Inode.Mtime,
		Ctime: ci.Inode.Ctime,
	}
}

// Stat implements fsapi.FS.
func (fs *FS) Stat(path string) (fsapi.Stat, error) {
	t := fs.opTimer(opStat)
	defer t.Stop()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ci, err := fs.walkPath(path)
	if err != nil {
		return fsapi.Stat{}, err
	}
	// Data-path fields (size, times) are guarded by the inode lock against
	// concurrent writers, which also run under the shared namespace lock.
	ci.Mu.Lock()
	defer ci.Mu.Unlock()
	return fs.statOf(ci), nil
}

// Fstat implements fsapi.FS.
func (fs *FS) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	t := fs.opTimer(opFstat)
	defer t.Stop()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ci, err := fs.lookupFD(fd)
	if err != nil {
		return fsapi.Stat{}, err
	}
	ci.Mu.Lock()
	defer ci.Mu.Unlock()
	return fs.statOf(ci), nil
}

// Readdir implements fsapi.FS.
func (fs *FS) Readdir(path string) ([]fsapi.DirEntry, error) {
	t := fs.opTimer(opReaddir)
	defer t.Stop()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if err := fs.fire(&faultinject.Site{Op: "readdir", Point: "entry", Path: path}); err != nil {
		return nil, err
	}
	ci, err := fs.walkPath(path)
	if err != nil {
		return nil, err
	}
	if !ci.Inode.IsDir() {
		return nil, fserr.ErrNotDir
	}
	return fs.dirList(ci)
}

// SetPerm implements fsapi.FS.
func (fs *FS) SetPerm(path string, perm uint16) error {
	t := fs.opTimer(opSetPerm)
	defer t.Stop()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.fire(&faultinject.Site{Op: "setperm", Point: "entry", Path: path}); err != nil {
		return err
	}
	ci, err := fs.walkPath(path)
	if err != nil {
		return err
	}
	ci.Inode.Mode = disklayout.MkMode(ci.Inode.Type(), perm)
	ci.Inode.Ctime = fs.tick()
	fs.markInodeDirty(ci)
	return nil
}
