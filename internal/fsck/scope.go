package fsck

import (
	"fmt"
	"slices"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
)

// Region-scoped checking. The recovery pipeline knows which blocks were
// written since the last fully-verified baseline (every write funnels
// through the supervisor's fence) plus which blocks the committed-journal
// overlay replays; CheckScoped verifies only the structures those blocks
// implicate, so the fsck stage of recovery is proportional to the fault's
// blast radius, not the device size.
//
// A clean scoped report vouches for less than a clean full report: it says
// the superblock, the bitmaps, and every inode stored in a scoped
// inode-table block (record validity, pointer ranges, intra-scope block
// ownership, local dirent integrity) are sound. Global invariants that need
// the whole image — namespace reachability, link counts, leak detection,
// cross-scope double ownership — are deliberately out of scope; they are
// re-established by the next full pass (a cold recovery on an unverified
// image, or a background scrub). core only uses scoped checks downstream of
// a verified baseline, and the scrubber exists to refresh that baseline.

// Scope is a set of device blocks implicated by a fault. Not safe for
// concurrent mutation; build it, then hand it to CheckScoped.
type Scope struct {
	m map[uint32]struct{}
}

// NewScope returns an empty scope.
func NewScope() *Scope { return &Scope{m: make(map[uint32]struct{})} }

// Add puts blk in scope.
func (s *Scope) Add(blk uint32) { s.m[blk] = struct{}{} }

// Has reports whether blk is in scope.
func (s *Scope) Has(blk uint32) bool {
	_, ok := s.m[blk]
	return ok
}

// Len returns the number of blocks in scope.
func (s *Scope) Len() int { return len(s.m) }

// PrefetchRanges returns, as ascending coalesced runs, the blocks a check
// scoped to sc reads for certain: the scope itself, minus the journal region
// (nothing reads the journal through a recovery view), plus the bitmap
// blocks bitmapCoverage adds. A recovery plan hands them to the view's
// prefetch crew, so what the crew reads tracks the scope too.
func (s *Scope) PrefetchRanges(sb *disklayout.Superblock) []blockdev.BlockRange {
	ibm, bbm := bitmapCoverage(sb, s)
	blks := make([]uint32, 0, len(s.m)+len(ibm)+len(bbm))
	for blk := range s.m {
		if blk < sb.JournalStart || blk >= sb.JournalStart+sb.JournalLen {
			blks = append(blks, blk)
		}
	}
	for rel := range ibm {
		blks = append(blks, sb.InodeBitmapStart+rel)
	}
	for rel := range bbm {
		blks = append(blks, sb.BlockBitmapStart+rel)
	}
	slices.Sort(blks)
	var out []blockdev.BlockRange
	for _, blk := range blks {
		switch n := len(out); {
		case n > 0 && blk < out[n-1].Start+out[n-1].Len: // in scope and a needed bitmap block
		case n > 0 && blk == out[n-1].Start+out[n-1].Len:
			out[n-1].Len++
		default:
			out = append(out, blockdev.BlockRange{Start: blk, Len: 1})
		}
	}
	return out
}

// CheckScoped verifies the regions of the image implicated by sc using the
// parallel scan engine. The superblock is always checked; bitmap blocks are
// loaded only where they cover scoped structures (the rest degrade to
// unknown, skipping their checks, so the call's IO tracks the scope rather
// than the image's bitmap size); inode records are checked for every
// inode-table block in
// scope, including their extent claims and (for directories) dirent decoding
// and reference validity. If the scope covers the entire inode table the
// call degenerates to CheckParallel, which is strictly stronger and no more
// expensive.
func CheckScoped(dev blockdev.Device, sc *Scope, workers int) *Report {
	if workers < 1 {
		workers = 1
	}
	src := newCachedReader(dev)
	rep, c := prepareScoped(src, sc)
	if c == nil {
		rep.Scoped = true
		rep.ScopeBlocks = sc.Len()
		rep.Workers = workers
		return rep
	}
	sb := c.sb
	tbl := make([]uint32, 0, sb.InodeTableLen)
	full := true
	for i := uint32(0); i < sb.InodeTableLen; i++ {
		if sc.Has(sb.InodeTableStart + i) {
			tbl = append(tbl, sb.InodeTableStart+i)
		} else {
			full = false
		}
	}
	if full {
		return CheckParallel(dev, workers)
	}
	scanTableBlocks(src, sb, workers, tbl)
	forEachScopedInode(sb, tbl, func(ino uint32) { c.checkInode(ino) })
	forEachScopedInode(sb, tbl, func(ino uint32) {
		rec := c.inodes[ino]
		if rec == nil || rec.IsFree() || !rec.IsDir() {
			return
		}
		if c.inodeBitKnown(ino) && !disklayout.TestBit(c.ibm, ino) {
			// Ghost directory: already reported by checkInode, and it is not
			// part of the namespace, so its payload is not checked.
			return
		}
		c.checkDirLocal(ino, rec)
	})
	rep.Scoped = true
	rep.ScopeBlocks = sc.Len()
	rep.Workers = workers
	return rep
}

// forEachScopedInode visits, in ascending inode order, every valid inode
// number stored in the given (sorted) inode-table blocks.
func forEachScopedInode(sb *disklayout.Superblock, tbl []uint32, fn func(ino uint32)) {
	for _, blk := range tbl {
		base := (blk - sb.InodeTableStart) * disklayout.InodesPerBlock
		for s := 0; s < disklayout.InodesPerBlock; s++ {
			ino := base + uint32(s)
			if ino < 1 || ino >= sb.NumInodes {
				continue
			}
			fn(ino)
		}
	}
}

// checkDirLocal validates a directory's entries without the global walk:
// dirent decoding (inside dirents), entry target range, allocation state,
// and record validity. Reachability, cycles, and link counts need the whole
// namespace and are left to full checks.
func (c *checker) checkDirLocal(ino uint32, rec *disklayout.Inode) {
	c.rep.DirsWalked++
	for _, d := range c.dirents(ino, rec) {
		c.rep.check()
		where := fmt.Sprintf("dir inode %d entry %q", ino, d.Name)
		if d.Ino >= c.sb.NumInodes {
			c.rep.add(Corrupt, where, "references inode %d beyond table", d.Ino)
			continue
		}
		child := c.readInode(d.Ino)
		if c.inodeBitKnown(d.Ino) && !disklayout.TestBit(c.ibm, d.Ino) {
			c.rep.add(Corrupt, where, "references free inode %d", d.Ino)
			continue
		}
		if child == nil || child.IsFree() {
			c.rep.add(Corrupt, where, "references invalid inode %d", d.Ino)
		}
	}
}
