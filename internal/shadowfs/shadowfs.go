// Package shadowfs is the shadow filesystem: the simplest possible yet
// equivalent implementation of the base filesystem's API and on-disk format,
// built for robustness instead of performance (§2.3, §3.3).
//
// Everything the base has for speed, the shadow deliberately lacks:
//
//   - no dentry cache — every lookup walks from the root inode and scans
//     directory entries;
//   - no inode or block caches — one flat overlay map holds the blocks
//     written during recovery, and every read goes to the device (through
//     the overlay) synchronously;
//   - no concurrency — strictly single-threaded, no locks;
//   - no journal and no writes to the device — the shadow's device handle is
//     read-only (enforced by blockdev.ReadOnly), and all modifications land
//     in the overlay, which leaves as the hand-off image the base absorbs.
//
// In exchange, the shadow checks everything: the image is validated by fsck
// before use, every inode read is checksum- and pointer-validated and
// cross-checked against the allocation bitmap, every allocation and free
// verifies the bitmap transition, and every operation guards its own
// invariants. The paper pairs these runtime checks with formal verification;
// here the machine-checked counterpart is the executable specification
// (internal/model) that the shadow is differentially verified against, plus
// property-based tests (see package model and the difftest campaign).
package shadowfs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/fserr"
)

// Options configures shadow startup.
type Options struct {
	// SkipFsck starts without the full image check. Recovery always runs
	// fsck; this exists for benchmarks that measure the phases separately.
	SkipFsck bool
}

// Shadow is the shadow filesystem. It implements fsapi.FS. Not safe for
// concurrent use by design: the shadow is strictly sequential.
type Shadow struct {
	dev     blockdev.Device // read-only: writes through it are shadow bugs
	sb      *disklayout.Superblock
	overlay map[uint32][]byte
	meta    map[uint32]bool
	fds     map[fsapi.FD]uint32
	opens   map[uint32]int
	clock   fsapi.Clock
	checks  int64

	// physFree counts free data-region blocks; slack is the image's total
	// extent slack (see extent.go). The charged allocator refuses once
	// physFree falls to slack, matching the specification model's ENOSPC
	// timing and reserving the blocks demotion needs.
	physFree int64
	slack    int64

	// Constrained-mode constraints for the next allocating/opening
	// operation; zero values mean autonomous decisions.
	wantIno    uint32
	wantFD     fsapi.FD
	haveWantFD bool
}

var _ fsapi.FS = (*Shadow)(nil)

// New attaches a shadow to the device's current on-disk state. The device
// is wrapped read-only; unless SkipFsck is set the whole image is checked
// first and rejected if corrupt — the shadow never executes over an image it
// has not validated ("the input image must be guaranteed to be valid",
// §4.3).
func New(dev blockdev.Device, opts Options) (*Shadow, error) {
	if !opts.SkipFsck {
		rep := fsck.Check(dev)
		if err := rep.Err(); err != nil {
			return nil, err
		}
	}
	ro := blockdev.NewReadOnly(dev)
	b, err := ro.ReadBlock(0)
	if err != nil {
		return nil, fmt.Errorf("shadowfs: superblock: %w", err)
	}
	sb, err := disklayout.DecodeSuperblock(b)
	if err != nil {
		return nil, err
	}
	if sb.NumBlocks > dev.NumBlocks() {
		return nil, fmt.Errorf("shadowfs: superblock claims %d blocks, device has %d: %w",
			sb.NumBlocks, dev.NumBlocks(), fserr.ErrCorrupt)
	}
	s := &Shadow{
		dev:     ro,
		sb:      sb,
		overlay: make(map[uint32][]byte),
		meta:    make(map[uint32]bool),
		fds:     make(map[fsapi.FD]uint32),
		opens:   make(map[uint32]int),
	}
	s.clock.Set(sb.LastClock)
	if err := s.seedSpace(); err != nil {
		return nil, err
	}
	return s, nil
}

// ChecksRun returns the number of runtime checks executed, the measurable
// form of the shadow's "extensive runtime checks" property.
func (s *Shadow) ChecksRun() int64 { return s.checks }

// assert is the shadow's invariant guard: a failed check is a detected
// corruption, reported as an error, never a panic.
func (s *Shadow) assert(cond bool, format string, args ...any) error {
	s.checks++
	if cond {
		return nil
	}
	return fmt.Errorf("shadowfs: check failed: "+format+": %w", append(args, fserr.ErrCorrupt)...)
}

// peekBlock reads through the overlay, validating the block number first.
// A block the overlay holds comes back as the overlay's own slice, so the
// caller may only look at it; writeBlock never modifies a stored slice (it
// replaces it), so what was peeked stays a consistent image of the block.
func (s *Shadow) peekBlock(blk uint32) ([]byte, error) {
	if err := s.assert(blk < s.sb.NumBlocks, "block %d beyond image end %d", blk, s.sb.NumBlocks); err != nil {
		return nil, err
	}
	if b, ok := s.overlay[blk]; ok {
		return b, nil
	}
	return s.dev.ReadBlock(blk)
}

// readBlock is peekBlock for callers that go on to modify the block: what it
// returns is always the caller's own copy.
func (s *Shadow) readBlock(blk uint32) ([]byte, error) {
	b, err := s.peekBlock(blk)
	if _, held := s.overlay[blk]; held && err == nil {
		b = append([]byte(nil), b...)
	}
	return b, err
}

// writeBlock stores a block in the overlay — never on the device.
func (s *Shadow) writeBlock(blk uint32, data []byte, meta bool) error {
	if err := s.assert(blk != 0, "write to superblock"); err != nil {
		return err
	}
	if err := s.assert(blk < s.sb.NumBlocks, "write to block %d beyond image end", blk); err != nil {
		return err
	}
	if err := s.assert(len(data) == disklayout.BlockSize, "write of %d bytes", len(data)); err != nil {
		return err
	}
	cp := make([]byte, disklayout.BlockSize)
	copy(cp, data)
	s.overlay[blk] = cp
	if meta {
		s.meta[blk] = true
	}
	return nil
}

// readInode loads and fully validates one inode record: range, checksum,
// pointer bounds, and allocation-bitmap agreement.
func (s *Shadow) readInode(ino uint32) (*disklayout.Inode, error) {
	if err := s.assert(ino != 0 && ino < s.sb.NumInodes, "inode %d out of range", ino); err != nil {
		return nil, err
	}
	blk, off := s.sb.InodeLoc(ino)
	b, err := s.peekBlock(blk)
	if err != nil {
		return nil, err
	}
	rec, err := disklayout.DecodeInode(b[off : off+disklayout.InodeSize])
	if err != nil {
		return nil, fmt.Errorf("shadowfs: inode %d: %w", ino, err)
	}
	s.checks++
	if err := rec.ValidatePointers(s.sb); err != nil {
		return nil, fmt.Errorf("shadowfs: inode %d: %w", ino, err)
	}
	allocated, err := s.inodeBit(ino)
	if err != nil {
		return nil, err
	}
	if err := s.assert(allocated == !rec.IsFree(),
		"inode %d bitmap bit %v disagrees with record type %d", ino, allocated, rec.Type()); err != nil {
		return nil, err
	}
	return rec, nil
}

// readAllocInode additionally requires the inode to be allocated.
func (s *Shadow) readAllocInode(ino uint32) (*disklayout.Inode, error) {
	rec, err := s.readInode(ino)
	if err != nil {
		return nil, err
	}
	if err := s.assert(!rec.IsFree(), "inode %d referenced but free", ino); err != nil {
		return nil, err
	}
	return rec, nil
}

// writeInode encodes a record back into the overlayed inode table.
func (s *Shadow) writeInode(ino uint32, rec *disklayout.Inode) error {
	if err := s.assert(rec.Size >= 0 && rec.Size <= disklayout.MaxFileSize,
		"inode %d size %d", ino, rec.Size); err != nil {
		return err
	}
	if !rec.IsFree() {
		if err := rec.ValidatePointers(s.sb); err != nil {
			return fmt.Errorf("shadowfs: refusing to write inode %d: %w", ino, err)
		}
	}
	blk, off := s.sb.InodeLoc(ino)
	b, err := s.readBlock(blk)
	if err != nil {
		return err
	}
	disklayout.PutInode(b[off:], rec)
	return s.writeBlock(blk, b, true)
}

// firstClear returns the lowest clear bit in [lo, hi) of the bitmap at
// start, or ErrNoSpace: one peek per bitmap block up to the first with room,
// nothing remembered between calls. Lowest-free-first is what keeps replay's
// inode and block choices identical to the base's.
func (s *Shadow) firstClear(start, lo, hi uint32) (uint32, error) {
	found := hi
	err := disklayout.ScanBitmap(s.peekBlock, start, lo, hi, func(bm []byte, base, from, to uint32) bool {
		if bit, ok := disklayout.FirstClear(bm, from, to); ok {
			found = base + bit
		}
		return found == hi
	})
	if err == nil && found == hi {
		err = fserr.ErrNoSpace
	}
	return found, err
}

// inodeBit reads inode ino's allocation bit.
func (s *Shadow) inodeBit(ino uint32) (bool, error) {
	blk := s.sb.InodeBitmapStart + ino/disklayout.BitsPerBlock
	b, err := s.peekBlock(blk)
	if err != nil {
		return false, err
	}
	return disklayout.TestBit(b, ino%disklayout.BitsPerBlock), nil
}

func (s *Shadow) setInodeBit(ino uint32, v bool) error {
	blk := s.sb.InodeBitmapStart + ino/disklayout.BitsPerBlock
	b, err := s.readBlock(blk)
	if err != nil {
		return err
	}
	bit := ino % disklayout.BitsPerBlock
	was := disklayout.TestBit(b, bit)
	if err := s.assert(was != v, "inode %d bitmap bit already %v", ino, v); err != nil {
		return err
	}
	if v {
		disklayout.SetBit(b, bit)
	} else {
		disklayout.ClearBit(b, bit)
	}
	return s.writeBlock(blk, b, true)
}

// allocInode claims an inode number: the constrained one if a constraint is
// pending (validating it is usable, per §3.2), otherwise the lowest free.
func (s *Shadow) allocInode(typ, perm uint16) (uint32, *disklayout.Inode, error) {
	var ino uint32
	if s.wantIno != 0 {
		ino = s.wantIno
		s.wantIno = 0
		if err := s.assert(ino < s.sb.NumInodes, "recorded inode %d out of range", ino); err != nil {
			return 0, nil, err
		}
		allocated, err := s.inodeBit(ino)
		if err != nil {
			return 0, nil, err
		}
		if err := s.assert(!allocated, "recorded inode %d already allocated", ino); err != nil {
			return 0, nil, err
		}
	} else {
		var err error
		if ino, err = s.firstClear(s.sb.InodeBitmapStart, 1, s.sb.NumInodes); err != nil {
			return 0, nil, err
		}
	}
	// Paranoia: the record under a free bit must be a free record.
	old, err := s.readInode(ino)
	if err != nil {
		return 0, nil, err
	}
	if err := s.assert(old.IsFree(), "allocating inode %d whose record is type %d", ino, old.Type()); err != nil {
		return 0, nil, err
	}
	if err := s.setInodeBit(ino, true); err != nil {
		return 0, nil, err
	}
	rec := &disklayout.Inode{
		Mode:       disklayout.MkMode(typ, perm&disklayout.ModePermMask),
		Generation: old.Generation + 1,
	}
	return ino, rec, nil
}

// freeInode releases an inode number and writes a free record.
func (s *Shadow) freeInode(ino uint32, rec *disklayout.Inode) error {
	if err := s.setInodeBit(ino, false); err != nil {
		return err
	}
	return s.writeInode(ino, &disklayout.Inode{Generation: rec.Generation})
}

// blockBit reads a data block's allocation bit.
func (s *Shadow) blockBit(blk uint32) (bool, error) {
	bmBlk := s.sb.BlockBitmapStart + blk/disklayout.BitsPerBlock
	b, err := s.peekBlock(bmBlk)
	if err != nil {
		return false, err
	}
	return disklayout.TestBit(b, blk%disklayout.BitsPerBlock), nil
}

func (s *Shadow) setBlockBit(blk uint32, v bool) error {
	bmBlk := s.sb.BlockBitmapStart + blk/disklayout.BitsPerBlock
	b, err := s.readBlock(bmBlk)
	if err != nil {
		return err
	}
	bit := blk % disklayout.BitsPerBlock
	was := disklayout.TestBit(b, bit)
	if err := s.assert(was != v, "block %d bitmap bit already %v", blk, v); err != nil {
		return err
	}
	if v {
		disklayout.SetBit(b, bit)
		s.physFree--
	} else {
		disklayout.ClearBit(b, bit)
		s.physFree++
	}
	return s.writeBlock(bmBlk, b, true)
}

// allocBlock claims the lowest free data block and returns it zeroed in the
// overlay. This is the model-charged allocator: it fails once the free count
// falls to the image's extent slack, which is exactly when the model's
// logical budget runs out (extent.go).
func (s *Shadow) allocBlock(meta bool) (uint32, error) {
	if s.physFree <= s.slack {
		return 0, fserr.ErrNoSpace
	}
	return s.allocBlockRaw(meta)
}

// allocBlockRaw is allocBlock without the slack reserve — for demotion's
// spine blocks, whose cost the model has already charged.
func (s *Shadow) allocBlockRaw(meta bool) (uint32, error) {
	blk, err := s.firstClear(s.sb.BlockBitmapStart, s.sb.DataStart, s.sb.NumBlocks)
	if err != nil {
		return 0, err
	}
	if err := s.setBlockBit(blk, true); err != nil {
		return 0, err
	}
	if err := s.writeBlock(blk, make([]byte, disklayout.BlockSize), meta); err != nil {
		return 0, err
	}
	return blk, nil
}

// freeBlock releases a data block, validating the region and bit state.
func (s *Shadow) freeBlock(blk uint32) error {
	if err := s.assert(blk >= s.sb.DataStart && blk < s.sb.NumBlocks,
		"freeing block %d outside data region", blk); err != nil {
		return err
	}
	used, err := s.blockBit(blk)
	if err != nil {
		return err
	}
	if err := s.assert(used, "double free of block %d", blk); err != nil {
		return err
	}
	if err := s.setBlockBit(blk, false); err != nil {
		return err
	}
	delete(s.overlay, blk)
	delete(s.meta, blk)
	return nil
}

// readPtr loads slot i of an indirect block, validating the pointer.
func (s *Shadow) readPtr(blk uint32, i int64) (uint32, error) {
	b, err := s.peekBlock(blk)
	if err != nil {
		return 0, err
	}
	p := binary.LittleEndian.Uint32(b[i*4:])
	if p != 0 {
		if err := s.assert(p >= s.sb.DataStart && p < s.sb.NumBlocks,
			"indirect block %d slot %d points at %d", blk, i, p); err != nil {
			return 0, err
		}
	}
	return p, nil
}

func (s *Shadow) writePtr(blk uint32, i int64, p uint32) error {
	b, err := s.readBlock(blk)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b[i*4:], p)
	return s.writeBlock(blk, b, true)
}

// bmap resolves a file block index to a physical block (0 = hole).
func (s *Shadow) bmap(rec *disklayout.Inode, idx int64) (uint32, error) {
	if err := s.assert(idx >= 0 && idx < disklayout.MaxFileBlocks, "block index %d", idx); err != nil {
		return 0, err
	}
	if rec.IsExtents() {
		return s.extentLookup(rec, idx)
	}
	switch {
	case idx < disklayout.NumDirect:
		return rec.Direct[idx], nil
	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		if rec.Indirect == 0 {
			return 0, nil
		}
		return s.readPtr(rec.Indirect, idx-disklayout.NumDirect)
	default:
		if rec.DblIndir == 0 {
			return 0, nil
		}
		rel := idx - disklayout.NumDirect - disklayout.PtrsPerBlock
		l2, err := s.readPtr(rec.DblIndir, rel/disklayout.PtrsPerBlock)
		if err != nil || l2 == 0 {
			return 0, err
		}
		return s.readPtr(l2, rel%disklayout.PtrsPerBlock)
	}
}

// bmapAlloc resolves idx, materializing the block and any indirect chain,
// rolling back on ENOSPC exactly as the base and model do.
func (s *Shadow) bmapAlloc(rec *disklayout.Inode, idx int64) (uint32, error) {
	if p, err := s.bmap(rec, idx); err != nil || p != 0 {
		return p, err
	}
	if rec.IsExtents() {
		// First write into an unmapped block of an extent file: demote it to
		// the legacy map (the shadow does not grow extent lists) and let the
		// legacy allocator below materialize the block.
		if err := s.demoteExtents(rec); err != nil {
			return 0, err
		}
	}
	var undo []uint32
	fail := func(err error) (uint32, error) {
		for i := len(undo) - 1; i >= 0; i-- {
			if ferr := s.freeBlock(undo[i]); ferr != nil {
				return 0, ferr
			}
		}
		return 0, err
	}
	alloc := func(meta bool) (uint32, error) {
		p, err := s.allocBlock(meta)
		if err == nil {
			undo = append(undo, p)
		}
		return p, err
	}
	switch {
	case idx < disklayout.NumDirect:
		p, err := alloc(false)
		if err != nil {
			return fail(err)
		}
		rec.Direct[idx] = p
		return p, nil
	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		newInd := false
		if rec.Indirect == 0 {
			ib, err := alloc(true)
			if err != nil {
				return fail(err)
			}
			rec.Indirect = ib
			newInd = true
		}
		p, err := alloc(false)
		if err != nil {
			if newInd {
				rec.Indirect = 0
			}
			return fail(err)
		}
		if err := s.writePtr(rec.Indirect, idx-disklayout.NumDirect, p); err != nil {
			return fail(err)
		}
		return p, nil
	default:
		rel := idx - disklayout.NumDirect - disklayout.PtrsPerBlock
		l2idx := rel / disklayout.PtrsPerBlock
		newDbl := false
		if rec.DblIndir == 0 {
			db, err := alloc(true)
			if err != nil {
				return fail(err)
			}
			rec.DblIndir = db
			newDbl = true
		}
		l2, err := s.readPtr(rec.DblIndir, l2idx)
		if err != nil {
			return fail(err)
		}
		newL2 := false
		if l2 == 0 {
			l2, err = alloc(true)
			if err != nil {
				if newDbl {
					rec.DblIndir = 0
				}
				return fail(err)
			}
			if err := s.writePtr(rec.DblIndir, l2idx, l2); err != nil {
				return fail(err)
			}
			newL2 = true
		}
		p, err := alloc(false)
		if err != nil {
			if newL2 {
				if werr := s.writePtr(rec.DblIndir, l2idx, 0); werr != nil {
					return 0, werr
				}
			}
			if newDbl {
				rec.DblIndir = 0
			}
			return fail(err)
		}
		if err := s.writePtr(l2, rel%disklayout.PtrsPerBlock, p); err != nil {
			return fail(err)
		}
		return p, nil
	}
}

// truncateBlocks frees every block at index >= keep, pruning empty indirect
// blocks.
func (s *Shadow) truncateBlocks(rec *disklayout.Inode, keep int64) error {
	if rec.IsExtents() {
		if keep <= 0 {
			return s.freeExtents(rec)
		}
		// Shrinking an extent file rewrites its mapping; demote first and
		// fall through to the legacy walk.
		if err := s.demoteExtents(rec); err != nil {
			return err
		}
	}
	for i := keep; i < disklayout.NumDirect; i++ {
		if i < 0 {
			continue
		}
		if p := rec.Direct[i]; p != 0 {
			if err := s.freeBlock(p); err != nil {
				return err
			}
			rec.Direct[i] = 0
		}
	}
	if rec.Indirect != 0 {
		empty, err := s.truncateIndirect(rec.Indirect, keep-disklayout.NumDirect)
		if err != nil {
			return err
		}
		if empty {
			if err := s.freeBlock(rec.Indirect); err != nil {
				return err
			}
			rec.Indirect = 0
		}
	}
	if rec.DblIndir != 0 {
		relKeep := keep - disklayout.NumDirect - disklayout.PtrsPerBlock
		b, err := s.readBlock(rec.DblIndir)
		if err != nil {
			return err
		}
		empty := true
		dirty := false
		for i := int64(0); i < disklayout.PtrsPerBlock; i++ {
			l2 := binary.LittleEndian.Uint32(b[i*4:])
			if l2 == 0 {
				continue
			}
			l2empty, err := s.truncateIndirect(l2, relKeep-i*disklayout.PtrsPerBlock)
			if err != nil {
				return err
			}
			if l2empty {
				if err := s.freeBlock(l2); err != nil {
					return err
				}
				binary.LittleEndian.PutUint32(b[i*4:], 0)
				dirty = true
			} else {
				empty = false
			}
		}
		if dirty {
			if err := s.writeBlock(rec.DblIndir, b, true); err != nil {
				return err
			}
		}
		if empty {
			if err := s.freeBlock(rec.DblIndir); err != nil {
				return err
			}
			rec.DblIndir = 0
		}
	}
	return nil
}

func (s *Shadow) truncateIndirect(blk uint32, keep int64) (bool, error) {
	b, err := s.readBlock(blk)
	if err != nil {
		return false, err
	}
	empty := true
	dirty := false
	for i := int64(0); i < disklayout.PtrsPerBlock; i++ {
		p := binary.LittleEndian.Uint32(b[i*4:])
		if p == 0 {
			continue
		}
		if i >= keep {
			if err := s.freeBlock(p); err != nil {
				return false, err
			}
			binary.LittleEndian.PutUint32(b[i*4:], 0)
			dirty = true
		} else {
			empty = false
		}
	}
	if dirty {
		if err := s.writeBlock(blk, b, true); err != nil {
			return false, err
		}
	}
	return empty, nil
}

// OpenFDs returns the shadow's descriptor table.
func (s *Shadow) OpenFDs() map[fsapi.FD]uint32 {
	out := make(map[fsapi.FD]uint32, len(s.fds))
	for fd, ino := range s.fds {
		out[fd] = ino
	}
	return out
}

// Clock returns the shadow's logical time.
func (s *Shadow) Clock() uint64 { return s.clock.Now() }

// SetClock seeds the logical clock during recovery.
func (s *Shadow) SetClock(v uint64) { s.clock.Set(v) }
