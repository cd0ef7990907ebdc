package basefs

// Extent-mapped files: delayed allocation and the vectored data path.
//
// Regular files created by this mount carry disklayout.FlagExtents and store
// their data map as a sorted extent list instead of the per-block pointer
// tree. Writes to unmapped file blocks do not allocate anything — they land
// in per-file delayed-allocation buffers and are materialized at sync time,
// when the whole dirty range is known and can be placed in a handful of
// contiguous runs (FindFreeRun). Each run then goes to the device as one
// vectored write, bypassing the per-block buffer-cache copies of the legacy
// path. Reads batch cache misses into vectored device reads the same way and
// extend the final run with extent-keyed readahead.
//
// ENOSPC parity with the specification model is the load-bearing constraint.
// The model charges bmap-geometry cost for every file (data blocks plus the
// indirect blocks the pointer tree would need); extent files physically cost
// less. fs.usedData therefore tracks the model's logical charge, decoupled
// from the block bitmap: delayed-allocation buffers are charged when the
// write is accepted (exactly when the model materializes the block), and the
// physical machinery (runs, extent nodes, the demote path) allocates without
// touching the charge. The invariant that makes this sound is
//
//	physical blocks used  <=  fs.usedData  <=  fs.dataBlocks
//
// which holds per file because an extent file's node chain is never allowed
// to cost more than the pointer-tree spine the model already charged for the
// same index set (spineBudget); a file fragmented past that budget is demoted
// back to the legacy block map, whose physical cost equals the model's
// exactly.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/blockdev"
	"repro/internal/cache"
	"repro/internal/disklayout"
	"repro/internal/fserr"
)

// readaheadBlocks bounds how far a vectored read extends past the requested
// range within the current extent.
const readaheadBlocks = 8

// extCounters tracks the bmap geometry of a file's materialized index set —
// enough to compute the specification model's fileBlockCost incrementally
// (O(1) per block instead of a full recount).
type extCounters struct {
	// nBlocks is the number of materialized file blocks.
	nBlocks int64
	// indCount is how many of them fall in the single-indirect index range.
	indCount int64
	// dblGroups counts blocks per second-level group in the double-indirect
	// range; the map's size is the number of L2 blocks the model charges.
	// It is made at the first such block.
	dblGroups map[int64]int64
}

// chargeCost returns the model-cost delta of materializing idx (the block
// itself plus any spine block that would newly exist in the pointer tree).
func (c *extCounters) chargeCost(idx int64) int64 {
	d := int64(1)
	switch {
	case idx < disklayout.NumDirect:
	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		if c.indCount == 0 {
			d++
		}
	default:
		if len(c.dblGroups) == 0 {
			d++ // the double-indirect block itself
		}
		g := (idx - disklayout.NumDirect - disklayout.PtrsPerBlock) / disklayout.PtrsPerBlock
		if c.dblGroups[g] == 0 {
			d++ // a new second-level block
		}
	}
	return d
}

func (c *extCounters) noteCharged(idx int64) {
	c.nBlocks++
	switch {
	case idx < disklayout.NumDirect:
	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		c.indCount++
	default:
		g := (idx - disklayout.NumDirect - disklayout.PtrsPerBlock) / disklayout.PtrsPerBlock
		if c.dblGroups == nil {
			c.dblGroups = make(map[int64]int64)
		}
		c.dblGroups[g]++
	}
}

// unchargeCost returns the model-cost delta of releasing idx.
func (c *extCounters) unchargeCost(idx int64) int64 {
	d := int64(1)
	switch {
	case idx < disklayout.NumDirect:
	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		if c.indCount == 1 {
			d++
		}
	default:
		g := (idx - disklayout.NumDirect - disklayout.PtrsPerBlock) / disklayout.PtrsPerBlock
		if c.dblGroups[g] == 1 {
			d++ // its second-level block empties
			if len(c.dblGroups) == 1 {
				d++ // ... and it was the last one, so DblIndir goes too
			}
		}
	}
	return d
}

func (c *extCounters) noteUncharged(idx int64) {
	c.nBlocks--
	switch {
	case idx < disklayout.NumDirect:
	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		c.indCount--
	default:
		g := (idx - disklayout.NumDirect - disklayout.PtrsPerBlock) / disklayout.PtrsPerBlock
		if c.dblGroups[g] <= 1 {
			delete(c.dblGroups, g)
		} else {
			c.dblGroups[g]--
		}
	}
}

// spineBudget is the number of pointer-tree spine blocks the model charges
// for this index set — the physical budget the extent node chain must fit in.
func (c *extCounters) spineBudget() int64 {
	var b int64
	if c.indCount > 0 {
		b++
	}
	if len(c.dblGroups) > 0 {
		b += 1 + int64(len(c.dblGroups))
	}
	return b
}

// delFile is the per-inode delayed-allocation state. The delalloc and
// pending maps are guarded by fs.delMu; a delFile's contents are guarded by
// the inode's data lock (ci.Mu under the shared namespace lock) or the
// exclusive namespace lock, exactly like the inode fields they shadow.
type delFile struct {
	seeded bool
	queued bool // in fs.pending
	// exts is the current mapped extent list, sorted by FileOff; nodes is the
	// overflow node chain backing its tail.
	exts  []disklayout.Extent
	nodes []uint32
	// bufs holds accepted-but-unallocated block contents; flushing holds the
	// generation frozen by the in-flight sync round. A write to a flushing
	// block copies it back into bufs (the round's snapshot stays immutable).
	// Each map is made at its first insert (putBuf, or the round's swap of
	// the two), since most files never buffer a block.
	bufs     map[int64][]byte
	flushing map[int64][]byte
	extCounters
}

func (fs *FS) delFileFor(ino uint32) *delFile {
	fs.delMu.Lock()
	defer fs.delMu.Unlock()
	st := fs.delalloc[ino]
	if st == nil {
		st = new(delFile)
		fs.delalloc[ino] = st
	}
	return st
}

// putBuf makes b the pending content of file block idx.
func (st *delFile) putBuf(idx int64, b []byte) {
	if st.bufs == nil {
		st.bufs = make(map[int64][]byte)
	}
	st.bufs[idx] = b
}

func (fs *FS) dropDelFile(ino uint32) {
	fs.delMu.Lock()
	delete(fs.delalloc, ino)
	delete(fs.pending, ino)
	fs.delMu.Unlock()
}

// setPending queues st at its first buffer and dequeues it once it has no
// buffers and no frozen generation; a re-created file keeps its new entry.
func (fs *FS) setPending(ino uint32, st *delFile, on bool) {
	if st.queued == on {
		return
	}
	st.queued = on
	fs.delMu.Lock()
	if on {
		fs.pending[ino] = st
	} else if fs.pending[ino] == st {
		delete(fs.pending, ino)
	}
	fs.delMu.Unlock()
}

// extState returns the inode's delayed-allocation state, loading the on-disk
// extent map and seeding the cost counters on first touch.
func (fs *FS) extState(ci *cache.CachedInode) (*delFile, error) {
	st := fs.delFileFor(ci.Ino)
	if st.seeded {
		return st, nil
	}
	exts, nodes, err := fs.loadExtents(ci)
	if err != nil {
		return nil, err
	}
	st.exts, st.nodes = exts, nodes
	for _, e := range exts {
		for k := int64(e.FileOff); k < int64(e.End()); k++ {
			st.noteCharged(k)
		}
	}
	st.seeded = true
	return st, nil
}

// loadExtents walks the inode's extent list through the buffer cache,
// validating each run's bounds and file-space ordering (the extent analogue
// of checkPtr).
func (fs *FS) loadExtents(ci *cache.CachedInode) ([]disklayout.Extent, []uint32, error) {
	var exts []disklayout.Extent
	var nodes []uint32
	read := func(blk uint32) ([]byte, error) {
		buf, err := fs.bc.Get(blk)
		if err != nil {
			return nil, err
		}
		cp := make([]byte, len(buf.Data))
		copy(cp, buf.Data)
		fs.bc.Release(buf)
		return cp, nil
	}
	var prevEnd uint64
	err := ci.Inode.ExtentWalk(fs.sb, read,
		func(nblk uint32) error {
			nodes = append(nodes, nblk)
			return nil
		},
		func(e disklayout.Extent) error {
			if err := fs.sb.ValidateExtent(e); err != nil {
				return fmt.Errorf("basefs: inode %d: %w", ci.Ino, err)
			}
			if uint64(e.FileOff) < prevEnd {
				return fmt.Errorf("basefs: inode %d: extent at file block %d overlaps run ending at %d: %w",
					ci.Ino, e.FileOff, prevEnd, fserr.ErrCorrupt)
			}
			prevEnd = uint64(e.End())
			exts = append(exts, e)
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	return exts, nodes, nil
}

// extentFor resolves a file block index against a sorted extent list; holes
// resolve to 0.
func extentFor(exts []disklayout.Extent, idx int64) uint32 {
	i := sort.Search(len(exts), func(i int) bool { return int64(exts[i].End()) > idx })
	if i < len(exts) && int64(exts[i].FileOff) <= idx {
		return exts[i].Start + uint32(idx-int64(exts[i].FileOff))
	}
	return 0
}

// insertExtent adds e to a sorted extent list, merging runs that are
// contiguous in both file and device space.
func insertExtent(exts []disklayout.Extent, e disklayout.Extent) []disklayout.Extent {
	i := sort.Search(len(exts), func(i int) bool { return exts[i].FileOff > e.FileOff })
	exts = append(exts, disklayout.Extent{})
	copy(exts[i+1:], exts[i:])
	exts[i] = e
	out := exts[:0]
	for _, x := range exts {
		if n := len(out); n > 0 {
			p := &out[n-1]
			if p.End() == x.FileOff && p.Start+p.Len == x.Start {
				p.Len += x.Len
				continue
			}
		}
		out = append(out, x)
	}
	return out
}

// chargeBlock applies the model-cost charge for materializing idx, failing
// with ErrNoSpace at exactly the moment the specification model would.
func (fs *FS) chargeBlock(st *delFile, idx int64) error {
	fs.allocMu.Lock()
	d := st.chargeCost(idx)
	if fs.usedData+d > fs.dataBlocks {
		fs.allocMu.Unlock()
		return fserr.ErrNoSpace
	}
	fs.usedData += d
	fs.allocMu.Unlock()
	st.noteCharged(idx)
	return nil
}

// unchargeIdx releases idx's model-cost charge (truncate, release).
func (fs *FS) unchargeIdx(st *delFile, idx int64) {
	fs.allocMu.Lock()
	fs.usedData -= st.unchargeCost(idx)
	fs.allocMu.Unlock()
	st.noteUncharged(idx)
}

// allocBlockPhys claims one physical block without touching the logical
// charge — for extent machinery (nodes, demote spine) whose cost the model
// already charged.
func (fs *FS) allocBlockPhys() (uint32, error) {
	fs.allocMu.Lock()
	defer fs.allocMu.Unlock()
	return fs.allocBlockLocked()
}

// allocRunPhys claims up to want physically contiguous blocks, preferring a
// full-length run and falling back to the longest available. No logical
// charge (see allocBlockPhys). Runs never span bitmap blocks, which caps a
// single run at BitsPerBlock blocks — far above any want this codebase uses.
func (fs *FS) allocRunPhys(want uint32) (uint32, uint32, error) {
	if want == 0 {
		return 0, 0, fserr.ErrInvalid
	}
	fs.allocMu.Lock()
	defer fs.allocMu.Unlock()
	for rel := uint32(0); rel < fs.sb.BlockBitmapLen; rel++ {
		buf, err := fs.bc.Get(fs.sb.BlockBitmapStart + rel)
		if err != nil {
			return 0, 0, err
		}
		base := rel * disklayout.BitsPerBlock
		limit := uint32(disklayout.BitsPerBlock)
		if fs.sb.NumBlocks-base < limit {
			limit = fs.sb.NumBlocks - base
		}
		hint := uint32(0)
		if fs.sb.DataStart > base {
			hint = fs.sb.DataStart - base
		}
		if hint >= limit {
			fs.bc.Release(buf)
			continue
		}
		start, n, ok := disklayout.FindFreeRun(buf.Data, hint, limit, want)
		if !ok {
			fs.bc.Release(buf)
			continue
		}
		for i := uint32(0); i < n; i++ {
			disklayout.SetBit(buf.Data, start+i)
		}
		fs.bc.MarkDirtyMeta(buf)
		fs.bc.Release(buf)
		return base + start, n, nil
	}
	return 0, 0, fserr.ErrNoSpace
}

// freeBlockPhys returns a physical block to the bitmap without touching the
// logical charge (the counterpart of allocBlockPhys/allocRunPhys).
func (fs *FS) freeBlockPhys(blk uint32) error {
	return fs.freeBlockCharged(blk, false)
}

// --- data path -------------------------------------------------------------

// extWriteBlocks is the extent branch of WriteAt's block loop: overwrites of
// mapped blocks go through the cache (reading the device only to merge a
// partial block), writes into unmapped blocks are charged and buffered for
// sync-time allocation. Returns bytes written and the error that stopped a
// short write.
func (fs *FS) extWriteBlocks(ci *cache.CachedInode, off int64, data []byte) (int, error) {
	st, err := fs.extState(ci)
	if err != nil {
		return 0, err
	}
	written := 0
	end := off + int64(len(data))
	for pos := off; pos < end; {
		bi := pos / disklayout.BlockSize
		boff := pos % disklayout.BlockSize
		chunk := disklayout.BlockSize - boff
		if pos+chunk > end {
			chunk = end - pos
		}
		if bi >= disklayout.MaxFileBlocks {
			return written, fmt.Errorf("basefs: block index %d out of range: %w", bi, fserr.ErrInvalid)
		}
		src := data[written : written+int(chunk)]
		if b, ok := st.bufs[bi]; ok {
			copy(b[boff:], src)
		} else if b, ok := st.flushing[bi]; ok {
			// Copy-on-write: the sync round's frozen snapshot stays immutable.
			nb := fs.bc.SpareBlock()
			copy(nb, b)
			copy(nb[boff:], src)
			st.putBuf(bi, nb)
			fs.setPending(ci.Ino, st, true)
		} else if phys := extentFor(st.exts, bi); phys != 0 {
			// A full-block overwrite replaces every byte, so an uncached
			// block needs no device read and no clear first; a partial one
			// merges into the old content and must read it.
			buf := fs.bc.Peek(phys)
			if buf == nil && chunk == disklayout.BlockSize {
				buf = fs.bc.GetNew(phys)
			} else if buf == nil {
				var gerr error
				if buf, gerr = fs.bc.Get(phys); gerr != nil {
					return written, gerr
				}
			}
			copy(buf.Data[boff:], src)
			fs.bc.MarkDirty(buf)
			fs.bc.Release(buf)
		} else {
			if cerr := fs.chargeBlock(st, bi); cerr != nil {
				return written, cerr
			}
			nb := fs.bc.SpareBlock()
			clear(nb[:boff])
			clear(nb[boff+chunk:])
			copy(nb[boff:], src)
			st.putBuf(bi, nb)
			fs.setPending(ci.Ino, st, true)
		}
		written += int(chunk)
		pos += chunk
	}
	return written, nil
}

// extReadInto fills out (already clamped to the file size) starting at off.
// Pending delalloc buffers and cached blocks are served from memory; cache
// misses are batched into vectored device reads, full-block misses landing
// directly in the caller's buffer. The final run is extended with
// extent-keyed readahead, installed into the cache for the next request.
func (fs *FS) extReadInto(ci *cache.CachedInode, off int64, out []byte) error {
	st, err := fs.extState(ci)
	if err != nil {
		return err
	}
	end := off + int64(len(out))
	type missBlk struct {
		phys    uint32
		dst     []byte // full-block destination buffer
		install bool   // adopt into the cache after the read
		sub     []byte // partial reads: the caller-visible destination
		lo      int64  // partial reads: offset within the block
	}
	var run []missBlk
	lastBi := int64(-1)
	flush := func(readahead bool) error {
		if len(run) == 0 {
			return nil
		}
		if readahead {
			sizeBlocks := (ci.Inode.Size + disklayout.BlockSize - 1) / disklayout.BlockSize
			next := lastBi + 1
			for k := 0; k < readaheadBlocks && next < sizeBlocks; k++ {
				phys := extentFor(st.exts, next)
				if phys != run[len(run)-1].phys+1 {
					break
				}
				if buf := fs.bc.Peek(phys); buf != nil {
					fs.bc.Release(buf)
					break
				}
				run = append(run, missBlk{phys: phys, dst: fs.bc.SpareBlock(), install: true})
				next++
			}
		}
		bufs := make([][]byte, len(run))
		for i := range run {
			bufs[i] = run[i].dst
		}
		err := fs.dev.ReadVec([]blockdev.Run{{Blk: run[0].phys, Bufs: bufs}})
		if err != nil {
			run = run[:0]
			return err
		}
		for i := range run {
			m := &run[i]
			if m.sub != nil {
				copy(m.sub, m.dst[m.lo:])
			}
			if m.install {
				fs.bc.InstallClean(m.phys, m.dst)
			}
		}
		run = run[:0]
		return nil
	}
	for pos := off; pos < end; {
		bi := pos / disklayout.BlockSize
		boff := pos % disklayout.BlockSize
		chunk := disklayout.BlockSize - boff
		if pos+chunk > end {
			chunk = end - pos
		}
		dst := out[pos-off : pos-off+chunk]
		if b, ok := st.bufs[bi]; ok {
			if err := flush(false); err != nil {
				return err
			}
			copy(dst, b[boff:])
		} else if b, ok := st.flushing[bi]; ok {
			if err := flush(false); err != nil {
				return err
			}
			copy(dst, b[boff:])
		} else if phys := extentFor(st.exts, bi); phys == 0 {
			if err := flush(false); err != nil {
				return err
			}
			for i := range dst {
				dst[i] = 0
			}
		} else if buf := fs.bc.Peek(phys); buf != nil {
			if err := flush(false); err != nil {
				return err
			}
			copy(dst, buf.Data[boff:])
			fs.bc.Release(buf)
		} else {
			if len(run) > 0 && run[len(run)-1].phys+1 != phys {
				if err := flush(false); err != nil {
					return err
				}
			}
			m := missBlk{phys: phys}
			if boff == 0 && chunk == disklayout.BlockSize {
				m.dst = dst // zero-copy: the device fills the caller's buffer
			} else {
				m.dst = fs.bc.SpareBlock() // ReadVec overwrites every byte
				m.install = true
				m.sub = dst
				m.lo = boff
			}
			run = append(run, m)
			lastBi = bi
		}
		pos += chunk
	}
	return flush(true)
}

// extZeroTail zeroes the bytes past size in the last kept block after an
// extent truncate, wherever that block currently lives.
func (fs *FS) extZeroTail(ci *cache.CachedInode, size int64) error {
	tail := size % disklayout.BlockSize
	if tail == 0 {
		return nil
	}
	bi := size / disklayout.BlockSize
	st, err := fs.extState(ci)
	if err != nil {
		return err
	}
	if b, ok := st.bufs[bi]; ok {
		for i := tail; i < disklayout.BlockSize; i++ {
			b[i] = 0
		}
		return nil
	}
	if b, ok := st.flushing[bi]; ok {
		nb := fs.bc.SpareBlock()
		copy(nb, b)
		clear(nb[tail:])
		st.putBuf(bi, nb)
		fs.setPending(ci.Ino, st, true)
		return nil
	}
	if phys := extentFor(st.exts, bi); phys != 0 {
		buf, err := fs.bc.Get(phys)
		if err != nil {
			return err
		}
		for i := tail; i < disklayout.BlockSize; i++ {
			buf.Data[i] = 0
		}
		fs.bc.MarkDirty(buf)
		fs.bc.Release(buf)
	}
	return nil
}

// truncateExtents drops every materialized block at index >= keep — pending
// buffers are simply uncharged, mapped blocks are freed — and rewrites the
// extent list. Called with the namespace lock held exclusively.
func (fs *FS) truncateExtents(ci *cache.CachedInode, keep int64) error {
	st, err := fs.extState(ci)
	if err != nil {
		return err
	}
	// A block carries one charge wherever it lives (a buffer may copy a
	// frozen or mapped block), released by the last loop that holds it.
	for idx := range st.bufs {
		if idx >= keep {
			delete(st.bufs, idx)
			if _, frozen := st.flushing[idx]; !frozen && extentFor(st.exts, idx) == 0 {
				fs.unchargeIdx(st, idx)
			}
		}
	}
	for idx := range st.flushing {
		if idx >= keep {
			delete(st.flushing, idx)
			if extentFor(st.exts, idx) == 0 {
				fs.unchargeIdx(st, idx)
			}
		}
	}
	var out []disklayout.Extent
	for _, e := range st.exts {
		switch {
		case int64(e.End()) <= keep:
			out = append(out, e)
		case int64(e.FileOff) >= keep:
			for k := uint32(0); k < e.Len; k++ {
				if err := fs.freeBlockPhys(e.Start + k); err != nil {
					return err
				}
				fs.unchargeIdx(st, int64(e.FileOff+k))
			}
		default: // straddles keep
			keepLen := uint32(keep - int64(e.FileOff))
			for k := keepLen; k < e.Len; k++ {
				if err := fs.freeBlockPhys(e.Start + k); err != nil {
					return err
				}
				fs.unchargeIdx(st, int64(e.FileOff+k))
			}
			e.Len = keepLen
			out = append(out, e)
		}
	}
	st.exts = out
	// Re-install: the shrunken list may need fewer nodes, and removing
	// indexes can shrink the spine budget below the nodes still needed, in
	// which case installExtents demotes.
	if err := fs.installExtents(ci, st); err != nil {
		return err
	}
	fs.markInodeDirty(ci)
	return nil
}

// --- extent installation and the demote fallback ---------------------------

// installExtents writes st.exts into the inode: the head inline, the tail
// into a chain of CRC-covered node blocks, reusing and freeing chain blocks
// as the list grows and shrinks. If the chain would exceed the file's spine
// budget — the physical allowance the model's charge covers — the file is
// demoted to the legacy block map instead.
func (fs *FS) installExtents(ci *cache.CachedInode, st *delFile) error {
	exts := st.exts
	if len(exts) > disklayout.MaxInlineExtents {
		rest := exts[disklayout.MaxInlineExtents:]
		nodesNeeded := (len(rest) + disklayout.ExtentsPerNode - 1) / disklayout.ExtentsPerNode
		if int64(nodesNeeded) > st.spineBudget() {
			return fs.demoteToBmap(ci, st)
		}
		for len(st.nodes) < nodesNeeded {
			nb, err := fs.allocBlockPhys()
			if err != nil {
				return err
			}
			st.nodes = append(st.nodes, nb)
		}
		for len(st.nodes) > nodesNeeded {
			last := st.nodes[len(st.nodes)-1]
			if err := fs.freeBlockPhys(last); err != nil {
				return err
			}
			st.nodes = st.nodes[:len(st.nodes)-1]
		}
		for i := 0; i < nodesNeeded; i++ {
			lo := i * disklayout.ExtentsPerNode
			hi := lo + disklayout.ExtentsPerNode
			if hi > len(rest) {
				hi = len(rest)
			}
			var next uint32
			if i+1 < nodesNeeded {
				next = st.nodes[i+1]
			}
			enc := disklayout.EncodeExtentNode(&disklayout.ExtentNode{Next: next, Extents: rest[lo:hi]})
			buf := fs.bc.GetNew(st.nodes[i])
			copy(buf.Data, enc) // a whole block
			fs.bc.MarkDirtyMeta(buf)
			fs.bc.Release(buf)
		}
		ci.Inode.SetInlineExtents(exts[:disklayout.MaxInlineExtents])
		ci.Inode.Indirect = st.nodes[0]
	} else {
		for _, nb := range st.nodes {
			if err := fs.freeBlockPhys(nb); err != nil {
				return err
			}
		}
		st.nodes = nil
		ci.Inode.SetInlineExtents(exts)
		ci.Inode.Indirect = 0
	}
	// DblIndir is never written on the extent path; leave it alone so a
	// scribble there reaches sync-validate instead of being healed silently.
	return nil
}

// demoteToBmap converts an over-fragmented extent file back to the legacy
// pointer tree. Chain nodes are freed FIRST so the spine allocation below
// stays within the file's logical charge at every step; pending delalloc
// buffers get physical homes now and become ordinary dirty cache blocks.
// After demotion the file's physical cost equals the model's exactly, the
// delFile is dropped, and every later operation takes the legacy paths.
func (fs *FS) demoteToBmap(ci *cache.CachedInode, st *delFile) error {
	fs.telExtDemotions.Inc()
	for _, nb := range st.nodes {
		if err := fs.freeBlockPhys(nb); err != nil {
			return err
		}
	}
	st.nodes = nil
	exts := st.exts
	ci.Inode.Flags &^= disklayout.FlagExtents
	ci.Inode.Direct = [disklayout.NumDirect]uint32{}
	ci.Inode.Indirect = 0
	ci.Inode.DblIndir = 0
	for _, e := range exts {
		for k := uint32(0); k < e.Len; k++ {
			if err := fs.placePtr(ci, int64(e.FileOff)+int64(k), e.Start+k); err != nil {
				return err
			}
		}
	}
	// Pending buffers that the extent list already maps (a sync round allocated
	// their runs before deciding to demote) keep that physical home; truly
	// unmapped ones are placed now. flushing before bufs so a copy-on-write
	// generation in bufs wins at the shared physical block. A round may still
	// be writing the frozen generation, so the cache adopts copies of it.
	for i, pending := range []map[int64][]byte{st.flushing, st.bufs} {
		for idx, b := range pending {
			if i == 0 {
				b = append(fs.bc.SpareBlock()[:0], b...)
			}
			p := extentFor(exts, idx)
			if p == 0 {
				var err error
				p, err = fs.allocBlockPhys()
				if err != nil {
					return err
				}
				if err := fs.placePtr(ci, idx, p); err != nil {
					return err
				}
			}
			fs.bc.Install(p, b, false)
		}
	}
	st.exts, st.bufs, st.flushing = nil, nil, nil
	fs.dropDelFile(ci.Ino)
	fs.markInodeDirty(ci)
	return nil
}

// placePtr installs an already-allocated physical block at file index idx in
// the legacy pointer tree, materializing spine blocks (uncharged — the model
// already accounts for them) as needed.
func (fs *FS) placePtr(ci *cache.CachedInode, idx int64, p uint32) error {
	switch {
	case idx < disklayout.NumDirect:
		ci.Inode.Direct[idx] = p
		return nil
	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		if ci.Inode.Indirect == 0 {
			ib, err := fs.allocBlockPhys()
			if err != nil {
				return err
			}
			fs.bc.Release(fs.zeroBlock(ib, true))
			ci.Inode.Indirect = ib
		}
		return fs.writePtr(ci.Inode.Indirect, idx-disklayout.NumDirect, p)
	default:
		rel := idx - disklayout.NumDirect - disklayout.PtrsPerBlock
		if ci.Inode.DblIndir == 0 {
			db, err := fs.allocBlockPhys()
			if err != nil {
				return err
			}
			fs.bc.Release(fs.zeroBlock(db, true))
			ci.Inode.DblIndir = db
		}
		l2, err := fs.readPtr(ci.Inode.DblIndir, rel/disklayout.PtrsPerBlock)
		if err != nil {
			return err
		}
		if l2 == 0 {
			l2, err = fs.allocBlockPhys()
			if err != nil {
				return err
			}
			fs.bc.Release(fs.zeroBlock(l2, true))
			if err := fs.writePtr(ci.Inode.DblIndir, rel/disklayout.PtrsPerBlock, l2); err != nil {
				return err
			}
		}
		return fs.writePtr(l2, rel%disklayout.PtrsPerBlock, p)
	}
}

// --- sync-time materialization ---------------------------------------------

// delRetire carries one file's frozen delalloc generation from Phase A
// (materialization under fs.mu) to Phase B (retirement after the vectored
// writes land).
type delRetire struct {
	ci *cache.CachedInode
	st *delFile
	// phys lists the file's frozen blocks of this round by physical block,
	// in the round's scratch.
	phys []frozenBlock
}

// frozenBlock is one frozen delalloc block: its file index, its physical
// home and the frozen content.
type frozenBlock struct {
	idx int64
	p   uint32
	buf []byte
}

// materializeDelalloc runs in sync Phase A under the exclusive namespace
// lock: the pending files' buffers are frozen, physical runs are allocated
// for them (FindFreeRun — this is where delayed allocation pays off), and
// the new extents are installed in the inodes so this round's metadata
// snapshot covers them. Ordered-mode crash safety holds by construction: the
// data runs are written in Phase B strictly before the journal commit that
// makes the new extents (and bitmap bits) durable, so a crash between them
// leaves the blocks free and the extents absent — never a mapped block with
// stale contents. Only fs.pending is visited, in inode order. The returned
// runs and retirements live in the round's scratch.
func (fs *FS) materializeDelalloc(sc *roundScratch) ([]blockdev.Run, []delRetire, error) {
	fs.delMu.Lock()
	for ino := range fs.pending {
		sc.inos = append(sc.inos, ino)
	}
	fs.delMu.Unlock()
	slices.Sort(sc.inos)

	for _, ino := range sc.inos {
		fs.delMu.Lock()
		st := fs.pending[ino]
		fs.delMu.Unlock()
		if st == nil {
			continue
		}
		// Leftovers from a failed round re-enter the pending set; newer
		// pending content wins.
		for idx, b := range st.flushing {
			if _, ok := st.bufs[idx]; !ok {
				st.putBuf(idx, b)
			}
		}
		clear(st.flushing)
		if len(st.bufs) == 0 {
			fs.setPending(ino, st, false)
			continue
		}
		ci, err := fs.getAllocInode(ino)
		if err != nil {
			return nil, nil, fmt.Errorf("basefs: delalloc inode %d: %w", ino, err)
		}
		if err := fs.materializeFile(sc, ci, st); err != nil {
			return nil, nil, err
		}
	}
	// The device runs: each file's frozen blocks coalesced into runs of
	// adjacent blocks, so a run never spans two files.
	for _, ret := range sc.rets {
		for _, x := range ret.phys {
			sc.delBufs = append(sc.delBufs, x.buf)
		}
	}
	bufs := sc.delBufs
	for _, ret := range sc.rets {
		n := len(sc.delRuns)
		sc.delRuns = appendRuns(sc.delRuns, bufs[:len(ret.phys)], func(k int) uint32 { return ret.phys[k].p })
		bufs = bufs[len(ret.phys):]
		fs.telExtMatRuns.Add(int64(len(sc.delRuns) - n))
	}
	return sc.delRuns, sc.rets, nil
}

// materializeFile freezes one file's pending buffers, allocates contiguous
// runs for them and installs the resulting extent list. Unless that demoted
// the file, it appends the file's retirement, with its frozen blocks sorted
// by physical block, to the round's scratch.
func (fs *FS) materializeFile(sc *roundScratch, ci *cache.CachedInode, st *delFile) error {
	st.flushing, st.bufs = st.bufs, st.flushing // flushing is empty here
	idxs := sc.idxs[:0]
	for idx := range st.flushing {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	sc.idxs = idxs

	// Allocate physical runs for the unmapped segments, extending the extent
	// list as we go.
	i := 0
	for i < len(idxs) {
		if extentFor(st.exts, idxs[i]) != 0 {
			i++
			continue
		}
		j := i + 1
		for j < len(idxs) && idxs[j] == idxs[j-1]+1 && extentFor(st.exts, idxs[j]) == 0 {
			j++
		}
		k := i
		for k < j {
			start, n, err := fs.allocRunPhys(uint32(j - k))
			if err != nil {
				return fmt.Errorf("basefs: delalloc inode %d: %w", ci.Ino, err)
			}
			st.exts = insertExtent(st.exts, disklayout.Extent{
				FileOff: uint32(idxs[k]), Start: start, Len: n,
			})
			k += int(n)
		}
		i = j
	}

	if err := fs.installExtents(ci, st); err != nil {
		return err
	}
	if !ci.Inode.IsExtents() {
		// Demoted: the pending buffers were installed as ordinary dirty cache
		// blocks and will ride this round's per-block snapshot.
		return nil
	}
	fs.markInodeDirty(ci)

	first := len(sc.frozen)
	for _, idx := range idxs {
		p := extentFor(st.exts, idx)
		if p == 0 {
			return fmt.Errorf("basefs: delalloc inode %d block %d unmapped after materialization: %w",
				ci.Ino, idx, fserr.ErrCorrupt)
		}
		sc.frozen = append(sc.frozen, frozenBlock{idx: idx, p: p, buf: st.flushing[idx]})
	}
	phys := sc.frozen[first:]
	slices.SortFunc(phys, func(a, b frozenBlock) int { return cmp.Compare(a.p, b.p) })
	fs.telExtMatBlocks.Add(int64(len(idxs)))
	sc.rets = append(sc.rets, delRetire{ci: ci, st: st, phys: phys})
	return nil
}

// retireDelalloc completes a round's frozen generation after its vectored
// writes landed: each block's content is adopted into the cache as clean
// (disk-accurate) and removed from the flushing set, under the same locks
// the read path takes, so a reader never sees a window where the block is in
// neither place. Entries a concurrent truncate removed are simply gone.
func (fs *FS) retireDelalloc(rets []delRetire) {
	if len(rets) == 0 {
		return
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for _, ret := range rets {
		ret.ci.Mu.Lock()
		for _, x := range ret.phys {
			if b, ok := ret.st.flushing[x.idx]; ok {
				// Drop any stale clean copy from an earlier round before
				// adopting this one (overwrite-in-flight case).
				fs.bc.Drop(x.p)
				fs.bc.InstallClean(x.p, b)
			}
		}
		clear(ret.st.flushing)
		if len(ret.st.bufs) == 0 {
			fs.setPending(ret.ci.Ino, ret.st, false)
		}
		ret.ci.Mu.Unlock()
	}
}

// --- accounting ------------------------------------------------------------

// seedAccounting computes fs.usedData for the mounted image: the physical
// block-bitmap population of the data region plus, for every extent file,
// the difference between the model's bmap-geometry charge and the file's
// (smaller) physical footprint. For an image with no extent files this is
// exactly the physical count, preserving the legacy ENOSPC behavior.
func (fs *FS) seedAccounting() error {
	var phys int64
	err := disklayout.ScanBitmap(fs.readBlockCopy, fs.sb.BlockBitmapStart, fs.sb.DataStart, fs.sb.NumBlocks,
		func(bm []byte, _, from, to uint32) bool {
			phys += int64(disklayout.CountSet(bm, from, to))
			return true
		})
	if err != nil {
		return err
	}
	phys-- // the backup superblock's bit is permanently set

	// Only inodes the bitmap marks allocated can be extent files, so the
	// table blocks that hold none are never read.
	var slack int64
	err = fs.sb.ForEachAllocatedInode(fs.readBlockCopy, func(ino uint32, rec *disklayout.Inode) {
		if rec.IsFree() || !rec.IsExtents() {
			return
		}
		s, err := fs.extentSlack(rec)
		if err != nil {
			// A broken chain surfaces on first access; accounting skips it.
			fs.Warnf("accounting: inode %d extent walk: %v", ino, err)
			return
		}
		slack += s
	})
	if err != nil {
		return err
	}

	fs.allocMu.Lock()
	fs.usedData = phys + slack
	fs.allocMu.Unlock()
	return nil
}

// readBlockCopy returns a private copy of a block read through the buffer
// cache, for disklayout walkers that keep the bytes past the buffer's pin.
func (fs *FS) readBlockCopy(blk uint32) ([]byte, error) {
	buf, err := fs.bc.Get(blk)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(buf.Data))
	copy(cp, buf.Data)
	fs.bc.Release(buf)
	return cp, nil
}

// extentSlack returns modelCost - physicalCost for one extent inode: how
// much cheaper the extent layout is than the pointer tree the model charges.
func (fs *FS) extentSlack(rec *disklayout.Inode) (int64, error) {
	var c extCounters
	var nodes int64
	err := rec.ExtentWalk(fs.sb, fs.readBlockCopy,
		func(uint32) error { nodes++; return nil },
		func(e disklayout.Extent) error {
			for k := int64(e.FileOff); k < int64(e.End()); k++ {
				c.noteCharged(k)
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	model := c.nBlocks + c.spineBudget()
	physF := c.nBlocks + nodes
	return model - physF, nil
}
