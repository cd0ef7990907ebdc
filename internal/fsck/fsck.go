// Package fsck is the structural filesystem checker.
//
// The paper assigns the checker a load-bearing role: the shadow must be
// "robust against crashes given a crafted filesystem image and call
// sequence", which "essentially requir[es] a verified version of the
// filesystem checker (FSCK)" (§4.3) — crafted images that bypass e2fsck and
// crash the kernel are one of the motivating bug classes (§2.1). This
// checker is therefore written in the shadow's style: it trusts nothing,
// validates every structure it touches, never panics on malformed input,
// and reports a typed problem list instead of wandering into undefined
// behavior.
//
// Checks performed:
//
//	superblock   decode, checksum, geometry
//	inode table  record checksums, types, sizes, pointer ranges
//	extents      reachable data/indirect blocks in range, no double owners
//	bitmaps      allocated state consistent with ownership; leaks flagged
//	directories  dirent decoding, referenced inodes allocated, type match,
//	             acyclic reachability from the root, single parent per dir
//	link counts  file nlink == referencing dirents; dir nlink == 2+subdirs
//	orphans      allocated inodes unreachable from the root
//
// One rule engine runs on one goroutine and reads through a per-check block
// cache, so each metadata block is read from the device once no matter how
// many inodes or dirents point into it. Check (the whole image),
// CheckScoped (region-scoped verification, see scope.go) and Repair all run
// it; recovery, scrub, the torture campaign and cmd/fsck check with the same
// code.
package fsck

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fserr"
)

// Severity grades a problem.
type Severity int

// Severities.
const (
	// Warn marks benign inconsistencies (leaked blocks, harmless slack).
	Warn Severity = iota
	// Corrupt marks structural damage that makes the image unsafe to use.
	Corrupt
)

// Problem is one finding.
type Problem struct {
	Severity Severity
	// Where locates the problem ("inode 7", "block 1042", "dir /a/b").
	Where string
	// What describes it.
	What string
}

// String formats the problem for reports.
func (p Problem) String() string {
	sev := "warn"
	if p.Severity == Corrupt {
		sev = "CORRUPT"
	}
	return fmt.Sprintf("[%s] %s: %s", sev, p.Where, p.What)
}

// Report is the checker's output.
type Report struct {
	Problems []Problem
	// Unreadable is set when the device itself could not be read well enough
	// to check anything (the superblock read failed). Distinct from a
	// readable-but-corrupt image for exit-code purposes.
	Unreadable bool
	// Scoped marks a region-scoped (partial) check: a clean scoped report
	// vouches only for the blocks in scope, not the whole image.
	Scoped bool
	// ScopeBlocks is the number of blocks in scope for a scoped check.
	ScopeBlocks int
	// Stats for experiment output.
	InodesChecked int
	BlocksOwned   int
	DirsWalked    int
	ChecksRun     int64
	// fix carries typed, repairable findings for Repair.
	fix *repairables
}

// Clean reports whether no corruption-grade problems were found.
func (r *Report) Clean() bool { return r.CorruptCount() == 0 }

// CorruptCount returns the number of corruption-grade findings.
func (r *Report) CorruptCount() int {
	n := 0
	for _, p := range r.Problems {
		if p.Severity == Corrupt {
			n++
		}
	}
	return n
}

// Warnings returns the number of warning-grade findings.
func (r *Report) Warnings() int {
	n := 0
	for _, p := range r.Problems {
		if p.Severity == Warn {
			n++
		}
	}
	return n
}

// ExitCode maps the report onto the cmd/fsck exit contract:
// 0 clean, 1 warnings only, 2 corruption found, 3 device unreadable.
// Check and Repair produce reports through the same code path, so the
// severity thresholds here are consistent between the two.
func (r *Report) ExitCode() int {
	switch {
	case r.Unreadable:
		return 3
	case r.CorruptCount() > 0:
		return 2
	case r.Warnings() > 0:
		return 1
	}
	return 0
}

// Err returns an fserr.ErrCorrupt-wrapped summary if the image is unsafe.
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	n := 0
	var first Problem
	for _, p := range r.Problems {
		if p.Severity == Corrupt {
			if n == 0 {
				first = p
			}
			n++
		}
	}
	return fmt.Errorf("fsck: %d corruption problems, first: %s: %w", n, first, fserr.ErrCorrupt)
}

func (r *Report) add(sev Severity, where, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{Severity: sev, Where: where, What: fmt.Sprintf(format, args...)})
}

func (r *Report) check() { r.ChecksRun++ }

// blockCache is the checker's read-through block cache. The first outcome
// read for a block, payload or error, is authoritative for the whole check,
// so every rule that reads the block sees the same bytes. Payloads are
// returned without copying: the checker never mutates a block it reads.
type blockCache struct {
	dev blockdev.Device
	m   map[uint32]cachedBlock
}

type cachedBlock struct {
	data []byte
	err  error
}

func newBlockCache(dev blockdev.Device) *blockCache {
	return &blockCache{dev: dev, m: make(map[uint32]cachedBlock)}
}

// ReadBlock returns the cached outcome for blk, reading through on a miss.
func (c *blockCache) ReadBlock(blk uint32) ([]byte, error) {
	if r, ok := c.m[blk]; ok {
		return r.data, r.err
	}
	data, err := c.dev.ReadBlock(blk)
	c.m[blk] = cachedBlock{data, err}
	return data, err
}

// checker carries the walk state.
type checker struct {
	dev *blockCache
	sb  *disklayout.Superblock
	rep *Report
	// owner maps each owned block to the inode that claims it.
	owner map[uint32]uint32
	// ibm/bbm are the on-disk bitmaps. Unreadable bitmap blocks degrade to
	// zero-filled ranges recorded in ibmUnk/bbmUnk: bit state there is
	// unknown, so checks that depend on it are skipped rather than aborting
	// the whole pass (or inventing problems from the zero fill).
	ibm, bbm []byte
	ibmUnk   map[uint32]bool
	bbmUnk   map[uint32]bool
	// inodes caches decoded records by number (nil = undecodable).
	inodes map[uint32]*disklayout.Inode
	// reach marks inodes reachable from the root; value is the dirent count.
	linkCount map[uint32]int
	subdirs   map[uint32]int
	dirSeen   map[uint32]bool
}

// Check validates the entire image and returns a report. It never panics on
// malformed input; any problem becomes a report entry.
func Check(dev blockdev.Device) *Report { return run(newBlockCache(dev)) }

// run is the full check over a block cache. CheckScoped hands it the cache
// it has already filled when its scope covers the whole table.
func run(src *blockCache) *Report {
	rep, c := prepare(src, nil)
	if c == nil {
		return rep
	}
	c.checkInodes()
	c.walkDirs()
	c.checkLinkCounts()
	c.checkBitmapConsistency()
	c.checkBackupSuperblock()
	return rep
}

// checkBackupSuperblock validates the backup copy in the image's last block.
// A backup that fails its checksum is only a warning — a crash can tear it,
// and recovery heals it — but a well-formed backup that disagrees with the
// primary's geometry means the two copies describe different filesystems,
// and a missing allocation bit would let the allocator hand the block out as
// data; both are corruption.
func (c *checker) checkBackupSuperblock() {
	blk := c.sb.BackupBlk()
	c.rep.check()
	if c.blockBitKnown(blk) && !disklayout.TestBit(c.bbm, blk) {
		c.rep.add(Corrupt, "backup superblock", "block %d free in bitmap", blk)
	}
	b, err := c.dev.ReadBlock(blk)
	if err != nil {
		c.rep.add(Warn, "backup superblock", "unreadable: %v", err)
		return
	}
	bsb, err := disklayout.DecodeSuperblock(b)
	if err != nil {
		c.rep.add(Warn, "backup superblock", "invalid (healed on next recovery): %v", err)
		return
	}
	// Mutable fields (Clean, Generation, LastClock) legitimately lag the
	// primary; the geometry must match exactly.
	p, q := *c.sb, *bsb
	p.Clean, q.Clean = 0, 0
	p.Generation, q.Generation = 0, 0
	p.LastClock, q.LastClock = 0, 0
	if p != q {
		c.rep.add(Corrupt, "backup superblock", "geometry disagrees with primary")
	}
}

// prepare performs the superblock and bitmap phase. A nil checker means the
// image failed early validation and rep already holds the reason. A non-nil
// scope restricts the bitmap reads to the blocks covering scoped structures;
// the rest become silently unknown, the same degraded state an unreadable
// bitmap block produces, so every downstream bitmap check skips them. This
// keeps the scoped check's IO proportional to the scope instead of the
// image's bitmap size. A nil scope loads everything.
func prepare(src *blockCache, sc *Scope) (*Report, *checker) {
	rep := &Report{fix: &repairables{nlinkFix: map[uint32]uint16{}}}
	b, err := src.ReadBlock(0)
	if err != nil {
		rep.add(Corrupt, "superblock", "unreadable: %v", err)
		rep.Unreadable = true
		return rep, nil
	}
	rep.check()
	sb, err := disklayout.DecodeSuperblock(b)
	if err != nil {
		rep.add(Corrupt, "superblock", "%v", err)
		return rep, nil
	}
	if n := src.dev.NumBlocks(); sb.NumBlocks > n {
		rep.add(Corrupt, "superblock", "claims %d blocks, device has %d", sb.NumBlocks, n)
		return rep, nil
	}
	c := &checker{
		dev: src, sb: sb, rep: rep,
		owner:     make(map[uint32]uint32),
		inodes:    make(map[uint32]*disklayout.Inode),
		linkCount: make(map[uint32]int),
		subdirs:   make(map[uint32]int),
		dirSeen:   make(map[uint32]bool),
	}
	c.loadBitmaps(sc)
	return rep, c
}

// bitmapCoverage maps a scope to the bitmap blocks the scoped check needs:
// bitmap blocks in scope themselves, the inode-bitmap blocks covering the
// inodes of scoped table blocks (ghost/orphan bits), and the block-bitmap
// blocks covering every scoped block (ownership-lie bits for claims that
// land inside the scope). Both sets are O(scope), never O(image).
func bitmapCoverage(sb *disklayout.Superblock, sc *Scope) (ibmNeed, bbmNeed map[uint32]bool) {
	ibmNeed = make(map[uint32]bool)
	bbmNeed = make(map[uint32]bool)
	for blk := range sc.m {
		if blk >= sb.InodeBitmapStart && blk < sb.InodeBitmapStart+sb.InodeBitmapLen {
			ibmNeed[blk-sb.InodeBitmapStart] = true
		}
		if blk >= sb.BlockBitmapStart && blk < sb.BlockBitmapStart+sb.BlockBitmapLen {
			bbmNeed[blk-sb.BlockBitmapStart] = true
		}
		if blk >= sb.InodeTableStart && blk < sb.InodeTableStart+sb.InodeTableLen {
			// InodesPerBlock divides BitsPerBlock, so one table block's inode
			// range never straddles two bitmap blocks.
			ino := (blk - sb.InodeTableStart) * disklayout.InodesPerBlock
			ibmNeed[ino/disklayout.BitsPerBlock] = true
		}
		bbmNeed[blk/disklayout.BitsPerBlock] = true
	}
	return ibmNeed, bbmNeed
}

// loadBitmaps reads both allocation bitmaps. An unreadable bitmap block
// degrades to a per-block finding plus an "unknown" range — it no longer
// aborts the whole check, so one bad bitmap block cannot mask every other
// problem on the image. A non-nil scope restricts the reads to the blocks
// bitmapCoverage derives; the rest are silently unknown.
func (c *checker) loadBitmaps(sc *Scope) {
	var ibmNeed, bbmNeed map[uint32]bool
	if sc != nil {
		ibmNeed, bbmNeed = bitmapCoverage(c.sb, sc)
	}
	read := func(start, n uint32, unk, need map[uint32]bool) []byte {
		out := make([]byte, 0, int(n)*disklayout.BlockSize)
		for i := uint32(0); i < n; i++ {
			if need != nil && !need[i] {
				unk[i] = true
				out = append(out, make([]byte, disklayout.BlockSize)...)
				continue
			}
			b, err := c.dev.ReadBlock(start + i)
			if err != nil {
				c.rep.add(Corrupt, fmt.Sprintf("bitmap block %d", start+i), "unreadable: %v", err)
				unk[i] = true
				out = append(out, make([]byte, disklayout.BlockSize)...)
				continue
			}
			out = append(out, b...)
		}
		return out
	}
	c.ibmUnk = make(map[uint32]bool)
	c.bbmUnk = make(map[uint32]bool)
	c.ibm = read(c.sb.InodeBitmapStart, c.sb.InodeBitmapLen, c.ibmUnk, ibmNeed)
	c.bbm = read(c.sb.BlockBitmapStart, c.sb.BlockBitmapLen, c.bbmUnk, bbmNeed)
}

// inodeBitKnown reports whether ino's allocation bit came from a readable
// bitmap block.
func (c *checker) inodeBitKnown(ino uint32) bool {
	return len(c.ibmUnk) == 0 || !c.ibmUnk[ino/disklayout.BitsPerBlock]
}

// blockBitKnown is inodeBitKnown for the block bitmap.
func (c *checker) blockBitKnown(blk uint32) bool {
	return len(c.bbmUnk) == 0 || !c.bbmUnk[blk/disklayout.BitsPerBlock]
}

// readInode decodes inode number ino from the table, caching the result.
func (c *checker) readInode(ino uint32) *disklayout.Inode {
	if rec, ok := c.inodes[ino]; ok {
		return rec
	}
	blk, off := c.sb.InodeLoc(ino)
	b, err := c.dev.ReadBlock(blk)
	if err != nil {
		c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "table block unreadable: %v", err)
		c.inodes[ino] = nil
		return nil
	}
	c.rep.check()
	rec, err := disklayout.DecodeInode(b[off : off+disklayout.InodeSize])
	if err != nil {
		c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "%v", err)
		c.inodes[ino] = nil
		return nil
	}
	c.inodes[ino] = rec
	return rec
}

// own claims a block for an inode, reporting double ownership, range
// violations, and bitmap lies.
func (c *checker) own(ino, blk uint32) bool {
	c.rep.check()
	if blk < c.sb.DataStart || blk >= c.sb.NumBlocks {
		c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "claims block %d outside data region", blk)
		return false
	}
	if prev, taken := c.owner[blk]; taken {
		lo, hi := prev, ino
		if lo > hi {
			lo, hi = hi, lo
		}
		c.rep.add(Corrupt, fmt.Sprintf("block %d", blk), "owned by both inode %d and inode %d", lo, hi)
		return false
	}
	c.owner[blk] = ino
	c.rep.BlocksOwned++
	if c.blockBitKnown(blk) && !disklayout.TestBit(c.bbm, blk) {
		c.rep.add(Corrupt, fmt.Sprintf("block %d", blk), "in use by inode %d but free in bitmap", ino)
	}
	return true
}

// blocksOf walks an inode's block map, claiming every block and returning
// the number of data blocks (for size plausibility). Extent inodes walk
// their run list (claiming overflow node blocks and every block of every
// run); legacy inodes walk the direct/indirect pointer tree.
func (c *checker) blocksOf(ino uint32, rec *disklayout.Inode) int64 {
	if rec.IsExtents() {
		return c.blocksOfExtents(ino, rec)
	}
	var data int64
	for _, p := range rec.Direct {
		if p != 0 && c.own(ino, p) {
			data++
		}
	}
	readPtrs := func(blk uint32) []uint32 {
		b, err := c.dev.ReadBlock(blk)
		if err != nil {
			c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "indirect block %d unreadable: %v", blk, err)
			return nil
		}
		out := make([]uint32, disklayout.PtrsPerBlock)
		for i := range out {
			out[i] = uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24
		}
		return out
	}
	if rec.Indirect != 0 && c.own(ino, rec.Indirect) {
		for _, p := range readPtrs(rec.Indirect) {
			if p != 0 && c.own(ino, p) {
				data++
			}
		}
	}
	if rec.DblIndir != 0 && c.own(ino, rec.DblIndir) {
		for _, l2 := range readPtrs(rec.DblIndir) {
			if l2 != 0 && c.own(ino, l2) {
				for _, p := range readPtrs(l2) {
					if p != 0 && c.own(ino, p) {
						data++
					}
				}
			}
		}
	}
	return data
}

// blocksOfExtents is the FlagExtents arm of blocksOf: it claims every
// overflow node block and every block of every run, validating run bounds
// and file-space ordering as it goes. Runs are claimed block-by-block so
// double-ownership detection works at the same granularity as the legacy
// walk. A broken chain (bad checksum, cycle, out-of-range node pointer)
// terminates the walk with a corruption finding; blocks claimed before the
// break stay claimed.
func (c *checker) blocksOfExtents(ino uint32, rec *disklayout.Inode) int64 {
	var data int64
	var prevEnd uint64
	read := c.dev.ReadBlock
	nodeFn := func(blk uint32) error {
		c.own(ino, blk)
		return nil
	}
	extFn := func(e disklayout.Extent) error {
		c.rep.check()
		if err := c.sb.ValidateExtent(e); err != nil {
			c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "%v", err)
			return nil
		}
		if uint64(e.FileOff) < prevEnd {
			c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino),
				"extent at file block %d overlaps previous run ending at %d", e.FileOff, prevEnd)
			return nil
		}
		prevEnd = uint64(e.FileOff) + uint64(e.Len)
		for i := uint32(0); i < e.Len; i++ {
			if c.own(ino, e.Start+i) {
				data++
			}
		}
		return nil
	}
	if err := rec.ExtentWalk(c.sb, read, nodeFn, extFn); err != nil {
		c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "extent walk: %v", err)
	}
	return data
}

// checkInodes validates every inode record against its bitmap state and
// claims its blocks.
func (c *checker) checkInodes() {
	for ino := uint32(1); ino < c.sb.NumInodes; ino++ {
		c.checkInode(ino)
	}
}

// checkInode validates one inode record (one iteration of the table scan);
// CheckScoped reuses it for the inodes its scope implicates.
func (c *checker) checkInode(ino uint32) {
	allocated := disklayout.TestBit(c.ibm, ino)
	rec := c.readInode(ino)
	c.rep.InodesChecked++
	if rec == nil {
		return
	}
	if c.inodeBitKnown(ino) {
		if !allocated {
			if !rec.IsFree() {
				c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino),
					"ghost: type %d record but free in bitmap", rec.Type())
				c.rep.fix.ghosts = append(c.rep.fix.ghosts, ino)
			}
			return
		}
		if rec.IsFree() {
			c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "allocated in bitmap but record is free")
			return
		}
	} else if rec.IsFree() {
		// Allocation state unknown (bitmap block unreadable) and the record
		// says free: nothing left to validate.
		return
	}
	if err := rec.ValidatePointers(c.sb); err != nil {
		c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "%v", err)
		return
	}
	if rec.IsExtents() && rec.Type() != disklayout.TypeFile {
		// Only regular files use the extent layout; a flagged directory or
		// symlink would have its inline extent words misread as block
		// pointers by every legacy consumer.
		c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino),
			"extent flag on type %d (only regular files use extents)", rec.Type())
		return
	}
	data := c.blocksOf(ino, rec)
	switch rec.Type() {
	case disklayout.TypeDir:
		if rec.Size%disklayout.BlockSize != 0 {
			c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "directory size %d not block-aligned", rec.Size)
		}
		if rec.Size/disklayout.BlockSize != data {
			c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino),
				"directory size %d implies %d blocks, owns %d", rec.Size, rec.Size/disklayout.BlockSize, data)
		}
	case disklayout.TypeSym:
		if rec.Size > disklayout.BlockSize || data != 1 {
			c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino),
				"symlink size %d with %d data blocks", rec.Size, data)
		}
	case disklayout.TypeFile:
		// Holes make size largely independent of the block count; the
		// only hard bound is that data cannot extend past the size's
		// last block... which holes also relax on shrink-without-free
		// bugs, so only flag the egregious case: blocks but zero size
		// is legal (pre-truncate), size beyond max is caught by decode.
	}
}

// dirent reads a directory's entries, validating as it goes.
func (c *checker) dirents(ino uint32, rec *disklayout.Inode) []disklayout.Dirent {
	var out []disklayout.Dirent
	collect := func(blk uint32) {
		b, err := c.dev.ReadBlock(blk)
		if err != nil {
			c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "directory block %d unreadable: %v", blk, err)
			return
		}
		for s := 0; s < disklayout.DirentsPerBlock; s++ {
			c.rep.check()
			d, err := disklayout.DecodeDirent(b[s*disklayout.DirentSize:])
			if err != nil {
				c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "block %d slot %d: %v", blk, s, err)
				continue
			}
			if d.Ino != 0 {
				out = append(out, d)
			}
		}
	}
	for _, p := range rec.Direct {
		if p != 0 {
			collect(p)
		}
	}
	// Directories in this format never exceed the direct range in practice,
	// but a crafted image may chain indirects; walk them too.
	walkInd := func(blk uint32) {
		b, err := c.dev.ReadBlock(blk)
		if err != nil {
			return
		}
		for i := 0; i < disklayout.PtrsPerBlock; i++ {
			p := uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24
			if p != 0 && p >= c.sb.DataStart && p < c.sb.NumBlocks {
				collect(p)
			}
		}
	}
	if rec.Indirect != 0 {
		walkInd(rec.Indirect)
	}
	return out
}

// walkDirs traverses the namespace from the root, counting links and
// detecting cycles / multiple parents.
func (c *checker) walkDirs() {
	rootRec := c.readInode(c.sb.RootIno)
	if rootRec == nil || !rootRec.IsDir() {
		c.rep.add(Corrupt, "root", "root inode is not a directory")
		return
	}
	type frame struct {
		ino  uint32
		path string
	}
	stack := []frame{{c.sb.RootIno, "/"}}
	c.dirSeen[c.sb.RootIno] = true
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c.rep.DirsWalked++
		rec := c.readInode(f.ino)
		if rec == nil {
			continue
		}
		for _, d := range c.dirents(f.ino, rec) {
			childPath := f.path + d.Name
			if f.path != "/" {
				childPath = f.path + "/" + d.Name
			}
			c.rep.check()
			if d.Ino >= c.sb.NumInodes {
				c.rep.add(Corrupt, "dir "+childPath, "entry references inode %d beyond table", d.Ino)
				continue
			}
			child := c.readInode(d.Ino)
			if c.inodeBitKnown(d.Ino) && !disklayout.TestBit(c.ibm, d.Ino) {
				c.rep.add(Corrupt, "dir "+childPath, "entry references free inode %d", d.Ino)
				continue
			}
			if child == nil || child.IsFree() {
				c.rep.add(Corrupt, "dir "+childPath, "entry references invalid inode %d", d.Ino)
				continue
			}
			c.linkCount[d.Ino]++
			if child.IsDir() {
				c.subdirs[f.ino]++
				if c.dirSeen[d.Ino] {
					c.rep.add(Corrupt, "dir "+childPath,
						"directory inode %d reachable twice (cycle or second parent)", d.Ino)
					continue
				}
				c.dirSeen[d.Ino] = true
				stack = append(stack, frame{d.Ino, childPath})
			}
		}
	}
}

// checkLinkCounts compares on-disk nlink with observed references and flags
// unreachable allocated inodes.
func (c *checker) checkLinkCounts() {
	for ino := uint32(1); ino < c.sb.NumInodes; ino++ {
		if c.inodeBitKnown(ino) && !disklayout.TestBit(c.ibm, ino) {
			continue
		}
		rec := c.inodes[ino]
		if rec == nil || rec.IsFree() {
			continue
		}
		c.rep.check()
		refs := c.linkCount[ino]
		switch {
		case rec.IsDir():
			if ino == c.sb.RootIno {
				want := 2 + c.subdirs[ino]
				if int(rec.Nlink) != want {
					c.rep.add(Corrupt, "root", "nlink %d, want %d", rec.Nlink, want)
				}
				continue
			}
			if !c.dirSeen[ino] {
				c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "allocated directory unreachable from root")
				continue
			}
			want := 2 + c.subdirs[ino]
			if int(rec.Nlink) != want {
				c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "directory nlink %d, want %d", rec.Nlink, want)
				c.rep.fix.nlinkFix[ino] = uint16(want)
			}
		default:
			if refs == 0 {
				if rec.Nlink == 0 {
					// Open-but-unlinked at crash time: an orphan, recoverable.
					c.rep.add(Warn, fmt.Sprintf("inode %d", ino), "orphan (nlink 0, unreachable)")
					c.rep.fix.orphans = append(c.rep.fix.orphans, ino)
				} else {
					c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino),
						"unreachable with nlink %d", rec.Nlink)
				}
				continue
			}
			if int(rec.Nlink) != refs {
				c.rep.add(Corrupt, fmt.Sprintf("inode %d", ino), "nlink %d, found %d references", rec.Nlink, refs)
				c.rep.fix.nlinkFix[ino] = uint16(refs)
			}
		}
	}
}

// checkBitmapConsistency flags blocks marked used that nothing owns (leaks).
func (c *checker) checkBitmapConsistency() {
	for blk := c.sb.DataStart; blk < c.sb.NumBlocks; blk++ {
		if blk == c.sb.BackupBlk() {
			// The backup superblock is permanently allocated but owned by no
			// inode; checkBackupSuperblock validates it instead.
			continue
		}
		if !c.blockBitKnown(blk) {
			continue
		}
		used := disklayout.TestBit(c.bbm, blk)
		_, owned := c.owner[blk]
		switch {
		case used && !owned:
			c.rep.add(Warn, fmt.Sprintf("block %d", blk), "allocated in bitmap but unowned (leak)")
			c.rep.fix.leaks = append(c.rep.fix.leaks, blk)
		case !used && owned:
			// own() already reported this as corruption.
		}
	}
}
