package shadowfs

import (
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// Every operation below is the straight-line, single-threaded rendition of
// the shared API semantics. Path resolution always starts at the root inode
// and scans directory entries (no dentry cache, §3.3). Each helper validates
// what it reads before acting on it.

// dirScan finds name in a directory, returning (child ino, block index,
// slot). Every entry it passes is decoded and validated.
func (s *Shadow) dirScan(dirIno uint32, dir *disklayout.Inode, name string) (uint32, int64, int, error) {
	nblocks := dir.Size / disklayout.BlockSize
	for bi := int64(0); bi < nblocks; bi++ {
		p, err := s.bmap(dir, bi)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := s.assert(p != 0, "directory %d has a hole at block %d", dirIno, bi); err != nil {
			return 0, 0, 0, err
		}
		b, err := s.readBlock(p)
		if err != nil {
			return 0, 0, 0, err
		}
		for slot := 0; slot < disklayout.DirentsPerBlock; slot++ {
			d, err := disklayout.DecodeDirent(b[slot*disklayout.DirentSize:])
			s.checks++
			if err != nil {
				return 0, 0, 0, err // the shadow does not skip bad entries
			}
			if d.Ino != 0 && d.Name == name {
				if err := s.assert(d.Ino < s.sb.NumInodes,
					"entry %q points at inode %d beyond table", name, d.Ino); err != nil {
					return 0, 0, 0, err
				}
				return d.Ino, bi, slot, nil
			}
		}
	}
	return 0, 0, 0, fserr.ErrNotExist
}

// walk resolves path components from the root.
func (s *Shadow) walk(comps []string) (uint32, *disklayout.Inode, error) {
	ino := s.sb.RootIno
	rec, err := s.readAllocInode(ino)
	if err != nil {
		return 0, nil, err
	}
	for _, c := range comps {
		if !rec.IsDir() {
			return 0, nil, fserr.ErrNotDir
		}
		child, _, _, err := s.dirScan(ino, rec, c)
		if err != nil {
			return 0, nil, err
		}
		ino = child
		rec, err = s.readAllocInode(ino)
		if err != nil {
			return 0, nil, err
		}
	}
	return ino, rec, nil
}

func (s *Shadow) walkPath(path string) (uint32, *disklayout.Inode, error) {
	comps, err := fsapi.SplitPath(nil, path)
	if err != nil {
		return 0, nil, err
	}
	return s.walk(comps)
}

func (s *Shadow) walkParent(path string) (uint32, *disklayout.Inode, string, error) {
	dir, base, err := fsapi.SplitDirBase(nil, path)
	if err != nil {
		return 0, nil, "", err
	}
	if err := disklayout.ValidName(base); err != nil {
		return 0, nil, "", err
	}
	ino, rec, err := s.walk(dir)
	if err != nil {
		return 0, nil, "", err
	}
	if !rec.IsDir() {
		return 0, nil, "", fserr.ErrNotDir
	}
	return ino, rec, base, nil
}

// dirInsert writes (name -> ino) into the first free slot, extending the
// directory when full. The parent record is mutated (size) but not written
// back; the caller persists it.
func (s *Shadow) dirInsert(dirIno uint32, dir *disklayout.Inode, name string, ino uint32) error {
	nblocks := dir.Size / disklayout.BlockSize
	for bi := int64(0); bi < nblocks; bi++ {
		p, err := s.bmap(dir, bi)
		if err != nil {
			return err
		}
		if err := s.assert(p != 0, "directory %d hole at block %d", dirIno, bi); err != nil {
			return err
		}
		b, err := s.readBlock(p)
		if err != nil {
			return err
		}
		for slot := 0; slot < disklayout.DirentsPerBlock; slot++ {
			d, err := disklayout.DecodeDirent(b[slot*disklayout.DirentSize:])
			if err != nil {
				return err
			}
			if d.Ino == 0 {
				disklayout.EncodeDirent(b[slot*disklayout.DirentSize:], disklayout.Dirent{Ino: ino, Name: name})
				return s.writeBlock(p, b, true)
			}
		}
	}
	p, err := s.bmapAlloc(dir, nblocks)
	if err != nil {
		return err
	}
	b, err := s.readBlock(p)
	if err != nil {
		return err
	}
	disklayout.EncodeDirent(b, disklayout.Dirent{Ino: ino, Name: name})
	if err := s.writeBlock(p, b, true); err != nil {
		return err
	}
	dir.Size += disklayout.BlockSize
	return nil
}

// dirSetSlot rewrites one known slot (remove with ino 0, or replace).
func (s *Shadow) dirSetSlot(dir *disklayout.Inode, bi int64, slot int, d disklayout.Dirent) error {
	p, err := s.bmap(dir, bi)
	if err != nil {
		return err
	}
	b, err := s.readBlock(p)
	if err != nil {
		return err
	}
	if d.Ino == 0 {
		for i := slot * disklayout.DirentSize; i < (slot+1)*disklayout.DirentSize; i++ {
			b[i] = 0
		}
	} else {
		disklayout.EncodeDirent(b[slot*disklayout.DirentSize:], d)
	}
	return s.writeBlock(p, b, true)
}

// dirIsEmpty scans for any live entry.
func (s *Shadow) dirIsEmpty(dirIno uint32, dir *disklayout.Inode) (bool, error) {
	nblocks := dir.Size / disklayout.BlockSize
	for bi := int64(0); bi < nblocks; bi++ {
		p, err := s.bmap(dir, bi)
		if err != nil {
			return false, err
		}
		if err := s.assert(p != 0, "directory %d hole at block %d", dirIno, bi); err != nil {
			return false, err
		}
		b, err := s.readBlock(p)
		if err != nil {
			return false, err
		}
		for slot := 0; slot < disklayout.DirentsPerBlock; slot++ {
			d, err := disklayout.DecodeDirent(b[slot*disklayout.DirentSize:])
			if err != nil {
				return false, err
			}
			if d.Ino != 0 {
				return false, nil
			}
		}
	}
	return true, nil
}

func (s *Shadow) allocFD() fsapi.FD {
	if s.haveWantFD {
		s.haveWantFD = false
		return s.wantFD
	}
	for fd := fsapi.FD(0); ; fd++ {
		if _, used := s.fds[fd]; !used {
			return fd
		}
	}
}

// dropIfUnreferenced frees an inode whose last link and descriptor are gone.
func (s *Shadow) dropIfUnreferenced(ino uint32, rec *disklayout.Inode) error {
	if rec.Nlink > 0 || s.opens[ino] > 0 {
		return nil
	}
	if err := s.truncateBlocks(rec, 0); err != nil {
		return err
	}
	return s.freeInode(ino, rec)
}

// Mkdir implements fsapi.FS.
func (s *Shadow) Mkdir(path string, perm uint16) error {
	pIno, parent, name, err := s.walkParent(path)
	if err != nil {
		return err
	}
	if _, _, _, err := s.dirScan(pIno, parent, name); err == nil {
		return fserr.ErrExist
	} else if err != fserr.ErrNotExist {
		return err
	}
	ino, rec, err := s.allocInode(disklayout.TypeDir, perm)
	if err != nil {
		return err
	}
	rec.Nlink = 2
	if err := s.dirInsert(pIno, parent, name, ino); err != nil {
		if ferr := s.freeInode(ino, rec); ferr != nil {
			return ferr
		}
		return err
	}
	now := s.clock.Tick()
	rec.Mtime, rec.Ctime = now, now
	parent.Nlink++
	parent.Mtime, parent.Ctime = now, now
	if err := s.writeInode(ino, rec); err != nil {
		return err
	}
	return s.writeInode(pIno, parent)
}

// Rmdir implements fsapi.FS.
func (s *Shadow) Rmdir(path string) error {
	pIno, parent, name, err := s.walkParent(path)
	if err != nil {
		return err
	}
	ino, bi, slot, err := s.dirScan(pIno, parent, name)
	if err != nil {
		return err
	}
	rec, err := s.readAllocInode(ino)
	if err != nil {
		return err
	}
	if !rec.IsDir() {
		return fserr.ErrNotDir
	}
	empty, err := s.dirIsEmpty(ino, rec)
	if err != nil {
		return err
	}
	if !empty {
		return fserr.ErrNotEmpty
	}
	if err := s.dirSetSlot(parent, bi, slot, disklayout.Dirent{}); err != nil {
		return err
	}
	if err := s.truncateBlocks(rec, 0); err != nil {
		return err
	}
	rec.Nlink = 0
	if err := s.freeInode(ino, rec); err != nil {
		return err
	}
	now := s.clock.Tick()
	parent.Nlink--
	parent.Mtime, parent.Ctime = now, now
	return s.writeInode(pIno, parent)
}

// Create implements fsapi.FS.
func (s *Shadow) Create(path string, perm uint16) (fsapi.FD, error) {
	pIno, parent, name, err := s.walkParent(path)
	if err != nil {
		return -1, err
	}
	if _, _, _, err := s.dirScan(pIno, parent, name); err == nil {
		return -1, fserr.ErrExist
	} else if err != fserr.ErrNotExist {
		return -1, err
	}
	ino, rec, err := s.allocInode(disklayout.TypeFile, perm)
	if err != nil {
		return -1, err
	}
	rec.Nlink = 1
	if err := s.dirInsert(pIno, parent, name, ino); err != nil {
		if ferr := s.freeInode(ino, rec); ferr != nil {
			return -1, ferr
		}
		return -1, err
	}
	now := s.clock.Tick()
	rec.Mtime, rec.Ctime = now, now
	parent.Mtime, parent.Ctime = now, now
	if err := s.writeInode(ino, rec); err != nil {
		return -1, err
	}
	if err := s.writeInode(pIno, parent); err != nil {
		return -1, err
	}
	fd := s.allocFD()
	if _, used := s.fds[fd]; used {
		return -1, s.assert(false, "fd %d already open", fd)
	}
	s.fds[fd] = ino
	s.opens[ino]++
	return fd, nil
}

// Open implements fsapi.FS.
func (s *Shadow) Open(path string) (fsapi.FD, error) {
	ino, rec, err := s.walkPath(path)
	if err != nil {
		return -1, err
	}
	switch rec.Type() {
	case disklayout.TypeDir:
		return -1, fserr.ErrIsDir
	case disklayout.TypeSym:
		return -1, fserr.ErrInvalid
	}
	fd := s.allocFD()
	if _, used := s.fds[fd]; used {
		return -1, s.assert(false, "fd %d already open", fd)
	}
	s.fds[fd] = ino
	s.opens[ino]++
	return fd, nil
}

// Close implements fsapi.FS.
func (s *Shadow) Close(fd fsapi.FD) error {
	ino, ok := s.fds[fd]
	if !ok {
		return fserr.ErrBadFD
	}
	delete(s.fds, fd)
	if err := s.assert(s.opens[ino] > 0, "close of inode %d with zero opens", ino); err != nil {
		return err
	}
	s.opens[ino]--
	rec, err := s.readAllocInode(ino)
	if err != nil {
		return err
	}
	return s.dropIfUnreferenced(ino, rec)
}

// ReadAt implements fsapi.FS.
func (s *Shadow) ReadAt(fd fsapi.FD, off int64, n int) ([]byte, error) {
	ino, ok := s.fds[fd]
	if !ok {
		return nil, fserr.ErrBadFD
	}
	if off < 0 || n < 0 {
		return nil, fserr.ErrInvalid
	}
	rec, err := s.readAllocInode(ino)
	if err != nil {
		return nil, err
	}
	if off >= rec.Size {
		return []byte{}, nil
	}
	end := off + int64(n)
	if end > rec.Size {
		end = rec.Size
	}
	out := make([]byte, end-off)
	for pos := off; pos < end; {
		bi := pos / disklayout.BlockSize
		boff := pos % disklayout.BlockSize
		chunk := disklayout.BlockSize - boff
		if pos+chunk > end {
			chunk = end - pos
		}
		p, err := s.bmap(rec, bi)
		if err != nil {
			return nil, err
		}
		if p != 0 {
			b, err := s.readBlock(p)
			if err != nil {
				return nil, err
			}
			copy(out[pos-off:], b[boff:boff+chunk])
		}
		pos += chunk
	}
	return out, nil
}

// WriteAt implements fsapi.FS: block by block into the overlay.
func (s *Shadow) WriteAt(fd fsapi.FD, off int64, data []byte) (int, error) {
	ino, ok := s.fds[fd]
	if !ok {
		return 0, fserr.ErrBadFD
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
	rec, err := s.readAllocInode(ino)
	if err != nil {
		return 0, err
	}
	written := 0
	end := off + int64(len(data))
	var werr error
	for pos := off; pos < end; {
		bi := pos / disklayout.BlockSize
		boff := pos % disklayout.BlockSize
		chunk := disklayout.BlockSize - boff
		if pos+chunk > end {
			chunk = end - pos
		}
		p, err := s.bmapAlloc(rec, bi)
		if err != nil {
			werr = err
			break
		}
		b, err := s.readBlock(p)
		if err != nil {
			werr = err
			break
		}
		copy(b[boff:boff+chunk], data[written:written+int(chunk)])
		if err := s.writeBlock(p, b, false); err != nil {
			werr = err
			break
		}
		written += int(chunk)
		pos += chunk
	}
	if written > 0 {
		if off+int64(written) > rec.Size {
			rec.Size = off + int64(written)
		}
		now := s.clock.Tick()
		rec.Mtime, rec.Ctime = now, now
		if err := s.writeInode(ino, rec); err != nil {
			return written, err
		}
	}
	return written, werr
}

// Truncate implements fsapi.FS.
func (s *Shadow) Truncate(path string, size int64) error {
	ino, rec, err := s.walkPath(path)
	if err != nil {
		return err
	}
	if rec.IsDir() {
		return fserr.ErrIsDir
	}
	if !rec.IsFile() {
		return fserr.ErrInvalid
	}
	if size < 0 || size > disklayout.MaxFileSize {
		return fserr.ErrInvalid
	}
	old := rec.Size
	switch {
	case size < old:
		keep := (size + disklayout.BlockSize - 1) / disklayout.BlockSize
		if err := s.truncateBlocks(rec, keep); err != nil {
			return err
		}
		if tail := size % disklayout.BlockSize; tail != 0 {
			p, err := s.bmap(rec, size/disklayout.BlockSize)
			if err != nil {
				return err
			}
			if p != 0 {
				b, err := s.readBlock(p)
				if err != nil {
					return err
				}
				for i := tail; i < disklayout.BlockSize; i++ {
					b[i] = 0
				}
				if err := s.writeBlock(p, b, false); err != nil {
					return err
				}
			}
		}
		rec.Size = size
	case size > old:
		rec.Size = size
	}
	now := s.clock.Tick()
	rec.Mtime, rec.Ctime = now, now
	return s.writeInode(ino, rec)
}

// Unlink implements fsapi.FS.
func (s *Shadow) Unlink(path string) error {
	pIno, parent, name, err := s.walkParent(path)
	if err != nil {
		return err
	}
	ino, bi, slot, err := s.dirScan(pIno, parent, name)
	if err != nil {
		return err
	}
	rec, err := s.readAllocInode(ino)
	if err != nil {
		return err
	}
	if rec.IsDir() {
		return fserr.ErrIsDir
	}
	if err := s.assert(rec.Nlink > 0, "unlink of inode %d with nlink 0", ino); err != nil {
		return err
	}
	if err := s.dirSetSlot(parent, bi, slot, disklayout.Dirent{}); err != nil {
		return err
	}
	now := s.clock.Tick()
	rec.Nlink--
	rec.Ctime = now
	parent.Mtime, parent.Ctime = now, now
	if err := s.writeInode(pIno, parent); err != nil {
		return err
	}
	if rec.Nlink == 0 && s.opens[ino] == 0 {
		if err := s.truncateBlocks(rec, 0); err != nil {
			return err
		}
		return s.freeInode(ino, rec)
	}
	return s.writeInode(ino, rec)
}

// Rename implements fsapi.FS.
func (s *Shadow) Rename(oldPath, newPath string) error {
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
	if pathsEqual(oldComps, newComps) {
		_, _, err := s.walk(oldComps)
		return err
	}
	if len(newComps) > len(oldComps) && pathsEqual(oldComps, newComps[:len(oldComps)]) {
		return fserr.ErrInvalid
	}
	oldPIno, oldParent, err := s.walk(oldComps[:len(oldComps)-1])
	if err != nil {
		return err
	}
	if !oldParent.IsDir() {
		return fserr.ErrNotDir
	}
	oldName := oldComps[len(oldComps)-1]
	srcIno, oldBi, oldSlot, err := s.dirScan(oldPIno, oldParent, oldName)
	if err != nil {
		return err
	}
	src, err := s.readAllocInode(srcIno)
	if err != nil {
		return err
	}
	newPIno, newParent, err := s.walk(newComps[:len(newComps)-1])
	if err != nil {
		return err
	}
	if !newParent.IsDir() {
		return fserr.ErrNotDir
	}
	newName := newComps[len(newComps)-1]
	if err := disklayout.ValidName(newName); err != nil {
		return err
	}
	sameParent := oldPIno == newPIno
	if sameParent {
		newParent = oldParent // operate on one record, not two copies
	}
	dstIno, dstBi, dstSlot, derr := s.dirScan(newPIno, newParent, newName)
	switch {
	case derr == nil:
		if dstIno == srcIno {
			return nil
		}
		dst, err := s.readAllocInode(dstIno)
		if err != nil {
			return err
		}
		if src.IsDir() {
			if !dst.IsDir() {
				return fserr.ErrNotDir
			}
			empty, err := s.dirIsEmpty(dstIno, dst)
			if err != nil {
				return err
			}
			if !empty {
				return fserr.ErrNotEmpty
			}
		} else if dst.IsDir() {
			return fserr.ErrIsDir
		}
		if err := s.dirSetSlot(newParent, dstBi, dstSlot, disklayout.Dirent{Ino: srcIno, Name: newName}); err != nil {
			return err
		}
		if dst.IsDir() {
			newParent.Nlink--
			dst.Nlink = 0
		} else {
			if err := s.assert(dst.Nlink > 0, "rename target inode %d nlink 0", dstIno); err != nil {
				return err
			}
			dst.Nlink--
		}
		if dst.Nlink == 0 && s.opens[dstIno] == 0 {
			if err := s.truncateBlocks(dst, 0); err != nil {
				return err
			}
			if err := s.freeInode(dstIno, dst); err != nil {
				return err
			}
		} else if err := s.writeInode(dstIno, dst); err != nil {
			return err
		}
	case derr == fserr.ErrNotExist:
		if err := s.dirInsert(newPIno, newParent, newName, srcIno); err != nil {
			return err
		}
	default:
		return derr
	}
	// Remove the old name. Re-scan: the insert may have shifted nothing, but
	// scanning again keeps the logic simple and fully checked.
	srcIno2, bi, slot, err := s.dirScan(oldPIno, oldParent, oldName)
	if err != nil {
		return err
	}
	if err := s.assert(srcIno2 == srcIno, "source moved during rename"); err != nil {
		return err
	}
	_ = oldBi
	_ = oldSlot
	if err := s.dirSetSlot(oldParent, bi, slot, disklayout.Dirent{}); err != nil {
		return err
	}
	if src.IsDir() && !sameParent {
		oldParent.Nlink--
		newParent.Nlink++
	}
	now := s.clock.Tick()
	src.Ctime = now
	oldParent.Mtime, oldParent.Ctime = now, now
	newParent.Mtime, newParent.Ctime = now, now
	if err := s.writeInode(srcIno, src); err != nil {
		return err
	}
	if err := s.writeInode(oldPIno, oldParent); err != nil {
		return err
	}
	if !sameParent {
		return s.writeInode(newPIno, newParent)
	}
	return nil
}

func pathsEqual(a, b []string) bool {
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
func (s *Shadow) Link(oldPath, newPath string) error {
	srcIno, src, err := s.walkPath(oldPath)
	if err != nil {
		return err
	}
	if src.IsDir() {
		return fserr.ErrIsDir
	}
	pIno, parent, name, err := s.walkParent(newPath)
	if err != nil {
		return err
	}
	if _, _, _, err := s.dirScan(pIno, parent, name); err == nil {
		return fserr.ErrExist
	} else if err != fserr.ErrNotExist {
		return err
	}
	if err := s.dirInsert(pIno, parent, name, srcIno); err != nil {
		return err
	}
	now := s.clock.Tick()
	src.Nlink++
	src.Ctime = now
	parent.Mtime, parent.Ctime = now, now
	if err := s.writeInode(srcIno, src); err != nil {
		return err
	}
	return s.writeInode(pIno, parent)
}

// Symlink implements fsapi.FS.
func (s *Shadow) Symlink(target, linkPath string) error {
	if len(target) > disklayout.BlockSize {
		return fserr.ErrNameTooLong
	}
	if target == "" {
		return fserr.ErrInvalid
	}
	pIno, parent, name, err := s.walkParent(linkPath)
	if err != nil {
		return err
	}
	if _, _, _, err := s.dirScan(pIno, parent, name); err == nil {
		return fserr.ErrExist
	} else if err != fserr.ErrNotExist {
		return err
	}
	ino, rec, err := s.allocInode(disklayout.TypeSym, 0o777)
	if err != nil {
		return err
	}
	rec.Nlink = 1
	blk, err := s.allocBlock(false)
	if err != nil {
		if ferr := s.freeInode(ino, rec); ferr != nil {
			return ferr
		}
		return err
	}
	b := make([]byte, disklayout.BlockSize)
	copy(b, target)
	if err := s.writeBlock(blk, b, false); err != nil {
		return err
	}
	rec.Direct[0] = blk
	rec.Size = int64(len(target))
	if err := s.dirInsert(pIno, parent, name, ino); err != nil {
		if ferr := s.freeBlock(blk); ferr != nil {
			return ferr
		}
		if ferr := s.freeInode(ino, rec); ferr != nil {
			return ferr
		}
		return err
	}
	now := s.clock.Tick()
	rec.Mtime, rec.Ctime = now, now
	parent.Mtime, parent.Ctime = now, now
	if err := s.writeInode(ino, rec); err != nil {
		return err
	}
	return s.writeInode(pIno, parent)
}

// Readlink implements fsapi.FS.
func (s *Shadow) Readlink(path string) (string, error) {
	_, rec, err := s.walkPath(path)
	if err != nil {
		return "", err
	}
	if rec.Type() != disklayout.TypeSym {
		return "", fserr.ErrInvalid
	}
	if err := s.assert(rec.Direct[0] != 0, "symlink with no target block"); err != nil {
		return "", err
	}
	if err := s.assert(rec.Size >= 0 && rec.Size <= disklayout.BlockSize,
		"symlink target size %d", rec.Size); err != nil {
		return "", err
	}
	b, err := s.readBlock(rec.Direct[0])
	if err != nil {
		return "", err
	}
	return string(b[:rec.Size]), nil
}

func statOf(ino uint32, rec *disklayout.Inode) fsapi.Stat {
	return fsapi.Stat{
		Ino:   ino,
		Mode:  rec.Mode,
		Nlink: rec.Nlink,
		Size:  rec.Size,
		Mtime: rec.Mtime,
		Ctime: rec.Ctime,
	}
}

// Stat implements fsapi.FS.
func (s *Shadow) Stat(path string) (fsapi.Stat, error) {
	ino, rec, err := s.walkPath(path)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return statOf(ino, rec), nil
}

// Fstat implements fsapi.FS.
func (s *Shadow) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	ino, ok := s.fds[fd]
	if !ok {
		return fsapi.Stat{}, fserr.ErrBadFD
	}
	rec, err := s.readAllocInode(ino)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return statOf(ino, rec), nil
}

// Readdir implements fsapi.FS.
func (s *Shadow) Readdir(path string) ([]fsapi.DirEntry, error) {
	dirIno, rec, err := s.walkPath(path)
	if err != nil {
		return nil, err
	}
	if !rec.IsDir() {
		return nil, fserr.ErrNotDir
	}
	var out []fsapi.DirEntry
	nblocks := rec.Size / disklayout.BlockSize
	for bi := int64(0); bi < nblocks; bi++ {
		p, err := s.bmap(rec, bi)
		if err != nil {
			return nil, err
		}
		if err := s.assert(p != 0, "directory %d hole at block %d", dirIno, bi); err != nil {
			return nil, err
		}
		b, err := s.readBlock(p)
		if err != nil {
			return nil, err
		}
		for slot := 0; slot < disklayout.DirentsPerBlock; slot++ {
			d, err := disklayout.DecodeDirent(b[slot*disklayout.DirentSize:])
			if err != nil {
				return nil, err
			}
			if d.Ino == 0 {
				continue
			}
			child, err := s.readAllocInode(d.Ino)
			if err != nil {
				return nil, err
			}
			out = append(out, fsapi.DirEntry{Name: d.Name, Ino: d.Ino, Type: child.Type()})
		}
	}
	return out, nil
}

// SetPerm implements fsapi.FS.
func (s *Shadow) SetPerm(path string, perm uint16) error {
	ino, rec, err := s.walkPath(path)
	if err != nil {
		return err
	}
	rec.Mode = disklayout.MkMode(rec.Type(), perm)
	rec.Ctime = s.clock.Tick()
	return s.writeInode(ino, rec)
}

// Fsync implements fsapi.FS. The shadow never persists anything itself:
// "completed sync operations are already on disk ... and incomplete sync
// operations are delegated back to the base filesystem" (§2.3). It still
// validates the descriptor.
func (s *Shadow) Fsync(fd fsapi.FD) error {
	if _, ok := s.fds[fd]; !ok {
		return fserr.ErrBadFD
	}
	return nil
}

// Sync implements fsapi.FS as a no-op for the same reason as Fsync.
func (s *Shadow) Sync() error { return nil }
