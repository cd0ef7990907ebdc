// Package model is the executable specification of the filesystem API: an
// abstract, obviously-correct, in-memory implementation of fsapi.FS used as
// the verification oracle.
//
// The paper's shadow is formally verified against a specification (§2.3,
// "Practical formal verification"); in this Go reproduction the model plays
// the specification's role. The shadow (and the base) are checked against it
// by the differential tester and by property-based tests: for any operation
// sequence, all three implementations must produce identical API-level
// outputs. The model therefore favors directness over everything: state is a
// pointer tree, every operation is a few lines, and there is nothing to
// cache, lock, or schedule.
//
// To make outputs (inode numbers, fd numbers, ENOSPC timing, readdir order)
// comparable with the disk-backed implementations, the model mirrors their
// deterministic policies: lowest-free inode and fd allocation,
// first-free-slot directory insertion, and block-accurate space accounting
// against the same image geometry.
package model

import (
	"sort"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// node is one inode in the abstract state.
type node struct {
	ino    uint32
	typ    uint16
	perm   uint16
	nlink  uint16
	mtime  uint64
	ctime  uint64
	opens  int // open fd count; inode survives unlink while > 0
	data   []byte
	blocks map[int64]bool // materialized file block indices, for space accounting
	target string         // symlink target
	slots  []dirSlot      // directory entries; tombstones have ino 0
}

type dirSlot struct {
	name string
	ino  uint32
}

// Model is the abstract filesystem. It implements fsapi.FS.
type Model struct {
	nodes      map[uint32]*node
	fds        map[fsapi.FD]*node
	fdScan     fsapi.FD
	clock      fsapi.Clock
	numInodes  uint32 // inode number space, mirroring the image geometry
	inoScan    uint32 // low-water mark: every ino below it is in use
	dataBlocks int64  // data-region capacity in blocks
	usedBlocks int64
}

var _ fsapi.FS = (*Model)(nil)

// New creates a model with the same resource limits as an image built from
// sb, so ENOSPC surfaces at the same operation as in the disk-backed
// implementations. The root directory consumes one inode and, like mkfs's
// root, starts with no directory blocks (the first insertion allocates one).
func New(sb *disklayout.Superblock) *Model {
	m := &Model{
		nodes:      make(map[uint32]*node),
		fds:        make(map[fsapi.FD]*node),
		numInodes:  sb.NumInodes,
		dataBlocks: int64(sb.DataBlocks()),
	}
	root := &node{ino: disklayout.RootIno, typ: disklayout.TypeDir, perm: 0o755, nlink: 2}
	m.nodes[disklayout.RootIno] = root
	m.inoScan = 1
	return m
}

// --- allocation policies (must mirror the disk implementations) ---

// allocIno picks the lowest free inode number. The scan starts at the
// low-water mark rather than 1: every number below the mark is in use, the
// mark only drops when freeIno releases a lower number, so the result is
// identical to a full lowest-free scan at amortized O(1) instead of O(live
// inodes) per allocation.
func (m *Model) allocIno() (uint32, error) {
	for ino := m.inoScan; ino < m.numInodes; ino++ {
		if _, used := m.nodes[ino]; !used {
			m.inoScan = ino + 1
			return ino, nil
		}
	}
	return 0, fserr.ErrNoSpace
}

// freeIno releases an inode number back to the allocator.
func (m *Model) freeIno(ino uint32) {
	delete(m.nodes, ino)
	if ino < m.inoScan {
		m.inoScan = ino
	}
}

// allocFD picks the lowest free descriptor, with the same low-water-mark
// amortization as allocIno: everything below fdScan is in use, and freeFD
// drops the mark when a lower number is released.
func (m *Model) allocFD() fsapi.FD {
	for fd := m.fdScan; ; fd++ {
		if _, used := m.fds[fd]; !used {
			m.fdScan = fd + 1
			return fd
		}
	}
}

// freeFD releases a descriptor back to the allocator.
func (m *Model) freeFD(fd fsapi.FD) {
	delete(m.fds, fd)
	if fd < m.fdScan {
		m.fdScan = fd
	}
}

// dirBlocks returns how many data blocks a directory with the given slot
// count occupies on disk.
func dirBlocks(nslots int) int64 {
	if nslots == 0 {
		return 0
	}
	return int64((nslots + disklayout.DirentsPerBlock - 1) / disklayout.DirentsPerBlock)
}

// dirBlockCost is dirBlocks plus the indirect-block overhead a directory of
// that size pays on disk (its blocks are allocated contiguously from index
// 0, so the overhead is a pure function of the block count).
func dirBlockCost(nslots int) int64 {
	blocks := dirBlocks(nslots)
	cost := blocks
	if blocks > disklayout.NumDirect {
		cost++ // single-indirect block
	}
	if blocks > disklayout.NumDirect+disklayout.PtrsPerBlock {
		rest := blocks - disklayout.NumDirect - disklayout.PtrsPerBlock
		cost += 1 + (rest+disklayout.PtrsPerBlock-1)/disklayout.PtrsPerBlock
	}
	return cost
}

// insertSlot adds a name to a directory, reusing the lowest tombstone,
// charging a new directory block when the slot array grows past a block
// boundary. It mirrors the disk format's first-free-slot scan.
func (m *Model) insertSlot(dir *node, name string, ino uint32) error {
	for i := range dir.slots {
		if dir.slots[i].ino == 0 {
			dir.slots[i] = dirSlot{name, ino}
			return nil
		}
	}
	before := dirBlockCost(len(dir.slots))
	after := dirBlockCost(len(dir.slots) + 1)
	if delta := after - before; delta > 0 {
		if m.usedBlocks+delta > m.dataBlocks {
			return fserr.ErrNoSpace
		}
		m.usedBlocks += delta
	}
	dir.slots = append(dir.slots, dirSlot{name, ino})
	return nil
}

func removeSlot(dir *node, name string) bool {
	for i := range dir.slots {
		if dir.slots[i].ino != 0 && dir.slots[i].name == name {
			dir.slots[i] = dirSlot{}
			return true
		}
	}
	return false
}

func (dir *node) lookupSlot(name string) (uint32, bool) {
	for i := range dir.slots {
		if dir.slots[i].ino != 0 && dir.slots[i].name == name {
			return dir.slots[i].ino, true
		}
	}
	return 0, false
}

// --- path resolution ---

// walk resolves components to a node, requiring every component to exist and
// every non-final component to be a directory.
func (m *Model) walk(comps []string) (*node, error) {
	cur := m.nodes[disklayout.RootIno]
	for _, c := range comps {
		if cur.typ != disklayout.TypeDir {
			return nil, fserr.ErrNotDir
		}
		ino, ok := cur.lookupSlot(c)
		if !ok {
			return nil, fserr.ErrNotExist
		}
		cur = m.nodes[ino]
	}
	return cur, nil
}

func (m *Model) walkPath(path string) (*node, error) {
	comps, err := fsapi.SplitPath(nil, path)
	if err != nil {
		return nil, err
	}
	return m.walk(comps)
}

// walkParent resolves path to (parent directory node, final name).
func (m *Model) walkParent(path string) (*node, string, error) {
	dir, base, err := fsapi.SplitDirBase(nil, path)
	if err != nil {
		return nil, "", err
	}
	if err := disklayout.ValidName(base); err != nil {
		return nil, "", err
	}
	parent, err := m.walk(dir)
	if err != nil {
		return nil, "", err
	}
	if parent.typ != disklayout.TypeDir {
		return nil, "", fserr.ErrNotDir
	}
	return parent, base, nil
}

// --- space accounting for file data ---

// fileBlockCost returns the total on-disk blocks (data + indirect) for a set
// of materialized file block indices. It mirrors the pointer geometry:
// blocks ≥ NumDirect need the single-indirect block; blocks beyond that need
// the double-indirect block plus one second-level block per PtrsPerBlock
// range.
func fileBlockCost(blocks map[int64]bool) int64 {
	var cost int64
	needInd := false
	needDbl := false
	l2 := map[int64]bool{}
	for idx := range blocks {
		cost++
		switch {
		case idx < disklayout.NumDirect:
		case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
			needInd = true
		default:
			needDbl = true
			l2[(idx-disklayout.NumDirect-disklayout.PtrsPerBlock)/disklayout.PtrsPerBlock] = true
		}
	}
	if needInd {
		cost++
	}
	if needDbl {
		cost += 1 + int64(len(l2))
	}
	return cost
}

// materialize charges for the file blocks covering [off, off+n) that are not
// yet materialized, returning how many bytes can be written before ENOSPC
// (possibly zero). It mutates n.blocks only for the affordable prefix.
func (m *Model) materialize(nd *node, off int64, n int) (int, error) {
	if n == 0 {
		return 0, nil
	}
	writable := 0
	for idx := off / disklayout.BlockSize; idx*disklayout.BlockSize < off+int64(n); idx++ {
		if !nd.blocks[idx] {
			before := fileBlockCost(nd.blocks)
			nd.blocks[idx] = true
			after := fileBlockCost(nd.blocks)
			if m.usedBlocks+after-before > m.dataBlocks {
				delete(nd.blocks, idx)
				break
			}
			m.usedBlocks += after - before
		}
		// Bytes of [off, off+n) covered through the end of this block.
		end := (idx + 1) * disklayout.BlockSize
		if end > off+int64(n) {
			end = off + int64(n)
		}
		writable = int(end - off)
	}
	if writable == 0 {
		return 0, fserr.ErrNoSpace
	}
	return writable, nil
}

// releaseFile returns all of a file's blocks to the free pool.
func (m *Model) releaseFile(nd *node) {
	m.usedBlocks -= fileBlockCost(nd.blocks)
	nd.blocks = map[int64]bool{}
}

// dropNode frees an inode once its last name and last descriptor are gone.
func (m *Model) dropNode(nd *node) {
	if nd.nlink > 0 || nd.opens > 0 {
		return
	}
	switch nd.typ {
	case disklayout.TypeFile:
		m.releaseFile(nd)
	case disklayout.TypeSym:
		if len(nd.target) > 0 {
			m.usedBlocks--
		}
	case disklayout.TypeDir:
		m.usedBlocks -= dirBlockCost(len(nd.slots))
	}
	m.freeIno(nd.ino)
}

// --- fsapi.FS implementation ---

// Mkdir implements fsapi.FS.
func (m *Model) Mkdir(path string, perm uint16) error {
	parent, name, err := m.walkParent(path)
	if err != nil {
		return err
	}
	if _, exists := parent.lookupSlot(name); exists {
		return fserr.ErrExist
	}
	ino, err := m.allocIno()
	if err != nil {
		return err
	}
	nd := &node{ino: ino, typ: disklayout.TypeDir, perm: perm & disklayout.ModePermMask, nlink: 2}
	m.nodes[ino] = nd
	if err := m.insertSlot(parent, name, ino); err != nil {
		m.freeIno(ino)
		return err
	}
	parent.nlink++
	t := m.clock.Tick()
	nd.mtime, nd.ctime = t, t
	parent.mtime, parent.ctime = t, t
	return nil
}

// Rmdir implements fsapi.FS.
func (m *Model) Rmdir(path string) error {
	parent, name, err := m.walkParent(path)
	if err != nil {
		return err
	}
	ino, ok := parent.lookupSlot(name)
	if !ok {
		return fserr.ErrNotExist
	}
	nd := m.nodes[ino]
	if nd.typ != disklayout.TypeDir {
		return fserr.ErrNotDir
	}
	for _, s := range nd.slots {
		if s.ino != 0 {
			return fserr.ErrNotEmpty
		}
	}
	removeSlot(parent, name)
	parent.nlink--
	nd.nlink = 0
	m.dropNode(nd)
	t := m.clock.Tick()
	parent.mtime, parent.ctime = t, t
	return nil
}

// Create implements fsapi.FS.
func (m *Model) Create(path string, perm uint16) (fsapi.FD, error) {
	parent, name, err := m.walkParent(path)
	if err != nil {
		return -1, err
	}
	if _, exists := parent.lookupSlot(name); exists {
		return -1, fserr.ErrExist
	}
	ino, err := m.allocIno()
	if err != nil {
		return -1, err
	}
	nd := &node{
		ino: ino, typ: disklayout.TypeFile, perm: perm & disklayout.ModePermMask,
		nlink: 1, blocks: map[int64]bool{},
	}
	m.nodes[ino] = nd
	if err := m.insertSlot(parent, name, ino); err != nil {
		m.freeIno(ino)
		return -1, err
	}
	t := m.clock.Tick()
	nd.mtime, nd.ctime = t, t
	parent.mtime, parent.ctime = t, t
	fd := m.allocFD()
	m.fds[fd] = nd
	nd.opens++
	return fd, nil
}

// Open implements fsapi.FS.
func (m *Model) Open(path string) (fsapi.FD, error) {
	nd, err := m.walkPath(path)
	if err != nil {
		return -1, err
	}
	switch nd.typ {
	case disklayout.TypeDir:
		return -1, fserr.ErrIsDir
	case disklayout.TypeSym:
		return -1, fserr.ErrInvalid
	}
	fd := m.allocFD()
	m.fds[fd] = nd
	nd.opens++
	return fd, nil
}

// Close implements fsapi.FS.
func (m *Model) Close(fd fsapi.FD) error {
	nd, ok := m.fds[fd]
	if !ok {
		return fserr.ErrBadFD
	}
	m.freeFD(fd)
	nd.opens--
	m.dropNode(nd)
	return nil
}

// ReadAt implements fsapi.FS.
func (m *Model) ReadAt(fd fsapi.FD, off int64, n int) ([]byte, error) {
	nd, ok := m.fds[fd]
	if !ok {
		return nil, fserr.ErrBadFD
	}
	if off < 0 || n < 0 {
		return nil, fserr.ErrInvalid
	}
	size := int64(len(nd.data))
	if off >= size {
		return []byte{}, nil
	}
	end := off + int64(n)
	if end > size {
		end = size
	}
	out := make([]byte, end-off)
	copy(out, nd.data[off:end])
	return out, nil
}

// WriteAt implements fsapi.FS.
func (m *Model) WriteAt(fd fsapi.FD, off int64, data []byte) (int, error) {
	nd, ok := m.fds[fd]
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
	writable, err := m.materialize(nd, off, len(data))
	if err != nil {
		return 0, err
	}
	end := off + int64(writable)
	if end > int64(len(nd.data)) {
		grown := make([]byte, end)
		copy(grown, nd.data)
		nd.data = grown
	}
	copy(nd.data[off:end], data[:writable])
	t := m.clock.Tick()
	nd.mtime, nd.ctime = t, t
	if writable < len(data) {
		return writable, fserr.ErrNoSpace
	}
	return writable, nil
}

// Truncate implements fsapi.FS.
func (m *Model) Truncate(path string, size int64) error {
	nd, err := m.walkPath(path)
	if err != nil {
		return err
	}
	if nd.typ == disklayout.TypeDir {
		return fserr.ErrIsDir
	}
	if nd.typ != disklayout.TypeFile {
		return fserr.ErrInvalid
	}
	if size < 0 || size > disklayout.MaxFileSize {
		return fserr.ErrInvalid
	}
	old := int64(len(nd.data))
	switch {
	case size < old:
		nd.data = nd.data[:size]
		// Free materialized blocks wholly beyond the new size.
		lastKept := (size + disklayout.BlockSize - 1) / disklayout.BlockSize
		before := fileBlockCost(nd.blocks)
		for idx := range nd.blocks {
			if idx >= lastKept {
				delete(nd.blocks, idx)
			}
		}
		m.usedBlocks -= before - fileBlockCost(nd.blocks)
	case size > old:
		// Extension creates a hole: no blocks are materialized.
		grown := make([]byte, size)
		copy(grown, nd.data)
		nd.data = grown
	}
	t := m.clock.Tick()
	nd.mtime, nd.ctime = t, t
	return nil
}

// Unlink implements fsapi.FS.
func (m *Model) Unlink(path string) error {
	parent, name, err := m.walkParent(path)
	if err != nil {
		return err
	}
	ino, ok := parent.lookupSlot(name)
	if !ok {
		return fserr.ErrNotExist
	}
	nd := m.nodes[ino]
	if nd.typ == disklayout.TypeDir {
		return fserr.ErrIsDir
	}
	removeSlot(parent, name)
	nd.nlink--
	t := m.clock.Tick()
	nd.ctime = t
	parent.mtime, parent.ctime = t, t
	m.dropNode(nd)
	return nil
}

// Rename implements fsapi.FS.
func (m *Model) Rename(oldPath, newPath string) error {
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
	// Same path after normalization: POSIX no-op.
	if pathEqual(oldComps, newComps) {
		// The source must still exist.
		if _, err := m.walk(oldComps); err != nil {
			return err
		}
		return nil
	}
	// Moving a directory into its own subtree is invalid.
	if len(newComps) > len(oldComps) && pathEqual(oldComps, newComps[:len(oldComps)]) {
		return fserr.ErrInvalid
	}
	oldParent, err := m.walk(oldComps[:len(oldComps)-1])
	if err != nil {
		return err
	}
	if oldParent.typ != disklayout.TypeDir {
		return fserr.ErrNotDir
	}
	oldName := oldComps[len(oldComps)-1]
	srcIno, ok := oldParent.lookupSlot(oldName)
	if !ok {
		return fserr.ErrNotExist
	}
	src := m.nodes[srcIno]
	newParent, err := m.walk(newComps[:len(newComps)-1])
	if err != nil {
		return err
	}
	if newParent.typ != disklayout.TypeDir {
		return fserr.ErrNotDir
	}
	newName := newComps[len(newComps)-1]
	if err := disklayout.ValidName(newName); err != nil {
		return err
	}
	if dstIno, exists := newParent.lookupSlot(newName); exists {
		dst := m.nodes[dstIno]
		if dstIno == srcIno {
			return nil // hard links to the same inode: POSIX no-op
		}
		if src.typ == disklayout.TypeDir {
			if dst.typ != disklayout.TypeDir {
				return fserr.ErrNotDir
			}
			for _, s := range dst.slots {
				if s.ino != 0 {
					return fserr.ErrNotEmpty
				}
			}
		} else if dst.typ == disklayout.TypeDir {
			return fserr.ErrIsDir
		}
		// Point the existing slot at src in place, preserving listing order
		// exactly as the disk implementations' slot overwrite does.
		for i := range newParent.slots {
			if newParent.slots[i].ino != 0 && newParent.slots[i].name == newName {
				newParent.slots[i].ino = srcIno
				break
			}
		}
		if dst.typ == disklayout.TypeDir {
			newParent.nlink--
			dst.nlink = 0
		} else {
			dst.nlink--
		}
		m.dropNode(dst)
	} else if err := m.insertSlot(newParent, newName, srcIno); err != nil {
		return err
	}
	removeSlot(oldParent, oldName)
	if src.typ == disklayout.TypeDir && oldParent != newParent {
		oldParent.nlink--
		newParent.nlink++
	}
	t := m.clock.Tick()
	src.ctime = t
	oldParent.mtime, oldParent.ctime = t, t
	newParent.mtime, newParent.ctime = t, t
	return nil
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
func (m *Model) Link(oldPath, newPath string) error {
	src, err := m.walkPath(oldPath)
	if err != nil {
		return err
	}
	if src.typ == disklayout.TypeDir {
		return fserr.ErrIsDir
	}
	parent, name, err := m.walkParent(newPath)
	if err != nil {
		return err
	}
	if _, exists := parent.lookupSlot(name); exists {
		return fserr.ErrExist
	}
	if err := m.insertSlot(parent, name, src.ino); err != nil {
		return err
	}
	src.nlink++
	t := m.clock.Tick()
	src.ctime = t
	parent.mtime, parent.ctime = t, t
	return nil
}

// Symlink implements fsapi.FS.
func (m *Model) Symlink(target, linkPath string) error {
	if len(target) > disklayout.BlockSize {
		return fserr.ErrNameTooLong
	}
	if target == "" {
		return fserr.ErrInvalid
	}
	parent, name, err := m.walkParent(linkPath)
	if err != nil {
		return err
	}
	if _, exists := parent.lookupSlot(name); exists {
		return fserr.ErrExist
	}
	if m.usedBlocks+1 > m.dataBlocks {
		return fserr.ErrNoSpace
	}
	ino, err := m.allocIno()
	if err != nil {
		return err
	}
	nd := &node{ino: ino, typ: disklayout.TypeSym, perm: 0o777, nlink: 1, target: target}
	m.nodes[ino] = nd
	if err := m.insertSlot(parent, name, ino); err != nil {
		m.freeIno(ino)
		return err
	}
	m.usedBlocks++
	t := m.clock.Tick()
	nd.mtime, nd.ctime = t, t
	parent.mtime, parent.ctime = t, t
	return nil
}

// Readlink implements fsapi.FS.
func (m *Model) Readlink(path string) (string, error) {
	nd, err := m.walkPath(path)
	if err != nil {
		return "", err
	}
	if nd.typ != disklayout.TypeSym {
		return "", fserr.ErrInvalid
	}
	return nd.target, nil
}

func (nd *node) stat() fsapi.Stat {
	size := int64(len(nd.data))
	switch nd.typ {
	case disklayout.TypeSym:
		size = int64(len(nd.target))
	case disklayout.TypeDir:
		size = dirBlocks(len(nd.slots)) * disklayout.BlockSize
	}
	return fsapi.Stat{
		Ino:   nd.ino,
		Mode:  disklayout.MkMode(nd.typ, nd.perm),
		Nlink: nd.nlink,
		Size:  size,
		Mtime: nd.mtime,
		Ctime: nd.ctime,
	}
}

// Stat implements fsapi.FS.
func (m *Model) Stat(path string) (fsapi.Stat, error) {
	nd, err := m.walkPath(path)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return nd.stat(), nil
}

// Fstat implements fsapi.FS.
func (m *Model) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	nd, ok := m.fds[fd]
	if !ok {
		return fsapi.Stat{}, fserr.ErrBadFD
	}
	return nd.stat(), nil
}

// Readdir implements fsapi.FS.
func (m *Model) Readdir(path string) ([]fsapi.DirEntry, error) {
	nd, err := m.walkPath(path)
	if err != nil {
		return nil, err
	}
	if nd.typ != disklayout.TypeDir {
		return nil, fserr.ErrNotDir
	}
	var out []fsapi.DirEntry
	for _, s := range nd.slots {
		if s.ino == 0 {
			continue
		}
		child := m.nodes[s.ino]
		out = append(out, fsapi.DirEntry{Name: s.name, Ino: s.ino, Type: child.typ})
	}
	return out, nil
}

// SetPerm implements fsapi.FS.
func (m *Model) SetPerm(path string, perm uint16) error {
	nd, err := m.walkPath(path)
	if err != nil {
		return err
	}
	nd.perm = perm & disklayout.ModePermMask
	nd.ctime = m.clock.Tick()
	return nil
}

// Fsync implements fsapi.FS. The model is always "durable".
func (m *Model) Fsync(fd fsapi.FD) error {
	if _, ok := m.fds[fd]; !ok {
		return fserr.ErrBadFD
	}
	return nil
}

// Sync implements fsapi.FS.
func (m *Model) Sync() error { return nil }

// OpenFDs returns the sorted set of currently open descriptors, used by
// invariant checks in tests.
func (m *Model) OpenFDs() []fsapi.FD {
	var fds []fsapi.FD
	for fd := range m.fds {
		fds = append(fds, fd)
	}
	sort.Slice(fds, func(i, j int) bool { return fds[i] < fds[j] })
	return fds
}

// UsedBlocks exposes the space-accounting state for cross-checks against the
// disk implementations' bitmaps.
func (m *Model) UsedBlocks() int64 { return m.usedBlocks }

// LiveInodes returns the number of allocated inodes, including open-unlinked
// ones.
func (m *Model) LiveInodes() int { return len(m.nodes) }
