package shadowfs

// Extent-file support. The shadow shares the base's on-disk format, so it
// must read files the base laid out as extent runs — but it keeps its own
// write path as simple as possible: the first mutation that would change an
// extent file's mapping (a write into an unmapped block, a shrinking
// truncate) demotes the file to the legacy pointer tree, and everything
// after that takes the battle-tested legacy paths. Reads and overwrites of
// mapped blocks never demote, so a recovery that only replays reads and
// in-place writes hands back the extent layout untouched.
//
// ENOSPC parity is the subtle part. The specification model charges every
// file bmap-geometry cost (data blocks plus the pointer-tree spine); extent
// files physically cost less, and the difference — the slack — is space the
// bitmap shows free but the model considers spent. The shadow tracks the
// image's total slack and refuses model-charged allocations once the free
// count falls to it, which reproduces the model's ENOSPC timing exactly and
// reserves precisely enough physical blocks for any demotion to succeed
// (a demotion consumes its file's slack, never more).

import (
	"fmt"

	"repro/internal/disklayout"
)

// extentList walks an extent inode's full run list and node chain through
// the overlay, validating bounds and file-space ordering.
func (s *Shadow) extentList(rec *disklayout.Inode) ([]disklayout.Extent, []uint32, error) {
	var exts []disklayout.Extent
	var nodes []uint32
	var prevEnd uint64
	err := rec.ExtentWalk(s.sb, s.peekBlock,
		func(nblk uint32) error {
			nodes = append(nodes, nblk)
			return nil
		},
		func(e disklayout.Extent) error {
			s.checks++
			if err := s.sb.ValidateExtent(e); err != nil {
				return fmt.Errorf("shadowfs: %w", err)
			}
			if err := s.assert(uint64(e.FileOff) >= prevEnd,
				"extent at file block %d overlaps run ending at %d", e.FileOff, prevEnd); err != nil {
				return err
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

// extentLookup resolves file block idx against an extent inode (0 = hole).
func (s *Shadow) extentLookup(rec *disklayout.Inode, idx int64) (uint32, error) {
	exts, _, err := s.extentList(rec)
	if err != nil {
		return 0, err
	}
	for _, e := range exts {
		if int64(e.FileOff) <= idx && idx < int64(e.End()) {
			return e.Start + uint32(idx-int64(e.FileOff)), nil
		}
	}
	return 0, nil
}

// extentSlack returns modelCost - physicalCost for one extent file: the
// number of bitmap-free blocks the model nonetheless considers spent on it.
func extentSlack(exts []disklayout.Extent, nodes int) int64 {
	var nBlocks, indCount int64
	dblGroups := make(map[int64]bool)
	for _, e := range exts {
		for k := int64(e.FileOff); k < int64(e.End()); k++ {
			nBlocks++
			switch {
			case k < disklayout.NumDirect:
			case k < disklayout.NumDirect+disklayout.PtrsPerBlock:
				indCount++
			default:
				dblGroups[(k-disklayout.NumDirect-disklayout.PtrsPerBlock)/disklayout.PtrsPerBlock] = true
			}
		}
	}
	var spine int64
	if indCount > 0 {
		spine++
	}
	if len(dblGroups) > 0 {
		spine += 1 + int64(len(dblGroups))
	}
	return spine - int64(nodes)
}

// demoteExtents converts an extent file to the legacy pointer tree in the
// overlay: node blocks are freed first, then every run block is re-homed in
// a freshly built spine. Spine blocks come from the raw allocator — their
// cost is the file's slack, which the charged allocator has been reserving,
// so demotion cannot hit ENOSPC on a consistent image.
func (s *Shadow) demoteExtents(rec *disklayout.Inode) error {
	exts, nodes, err := s.extentList(rec)
	if err != nil {
		return err
	}
	slackF := extentSlack(exts, len(nodes))
	for _, nb := range nodes {
		if err := s.freeBlock(nb); err != nil {
			return err
		}
	}
	rec.Flags &^= disklayout.FlagExtents
	rec.Direct = [disklayout.NumDirect]uint32{}
	rec.Indirect = 0
	rec.DblIndir = 0
	for _, e := range exts {
		for k := uint32(0); k < e.Len; k++ {
			if err := s.placeExtentPtr(rec, int64(e.FileOff)+int64(k), e.Start+k); err != nil {
				return err
			}
		}
	}
	s.slack -= slackF
	return nil
}

// placeExtentPtr installs an already-allocated block at file index idx in
// the legacy tree, building spine blocks from the raw allocator as needed.
func (s *Shadow) placeExtentPtr(rec *disklayout.Inode, idx int64, p uint32) error {
	switch {
	case idx < disklayout.NumDirect:
		rec.Direct[idx] = p
		return nil
	case idx < disklayout.NumDirect+disklayout.PtrsPerBlock:
		if rec.Indirect == 0 {
			ib, err := s.allocBlockRaw(true)
			if err != nil {
				return err
			}
			rec.Indirect = ib
		}
		return s.writePtr(rec.Indirect, idx-disklayout.NumDirect, p)
	default:
		rel := idx - disklayout.NumDirect - disklayout.PtrsPerBlock
		if rec.DblIndir == 0 {
			db, err := s.allocBlockRaw(true)
			if err != nil {
				return err
			}
			rec.DblIndir = db
		}
		l2, err := s.readPtr(rec.DblIndir, rel/disklayout.PtrsPerBlock)
		if err != nil {
			return err
		}
		if l2 == 0 {
			l2, err = s.allocBlockRaw(true)
			if err != nil {
				return err
			}
			if err := s.writePtr(rec.DblIndir, rel/disklayout.PtrsPerBlock, l2); err != nil {
				return err
			}
		}
		return s.writePtr(l2, rel%disklayout.PtrsPerBlock, p)
	}
}

// freeExtents releases everything an extent file maps — run blocks and node
// chain — and leaves the record an empty legacy map (the shadow does not
// grow extent lists, so a truncated-to-zero file continues in legacy form).
func (s *Shadow) freeExtents(rec *disklayout.Inode) error {
	exts, nodes, err := s.extentList(rec)
	if err != nil {
		return err
	}
	slackF := extentSlack(exts, len(nodes))
	for _, nb := range nodes {
		if err := s.freeBlock(nb); err != nil {
			return err
		}
	}
	for _, e := range exts {
		for k := uint32(0); k < e.Len; k++ {
			if err := s.freeBlock(e.Start + k); err != nil {
				return err
			}
		}
	}
	rec.Flags &^= disklayout.FlagExtents
	rec.Direct = [disklayout.NumDirect]uint32{}
	rec.Indirect = 0
	rec.DblIndir = 0
	s.slack -= slackF
	return nil
}

// seedSpace computes the free-block count and total extent slack for the
// attached image; allocBlock's ENOSPC guard compares the two. It reads the
// bitmaps and the table blocks that hold an allocated inode, nothing else.
// Records that fail to decode or walk are skipped — their operations will
// surface the corruption with a precise error when touched.
func (s *Shadow) seedSpace() error {
	s.physFree, s.slack = 0, 0
	err := disklayout.ScanBitmap(s.peekBlock, s.sb.BlockBitmapStart, s.sb.DataStart, s.sb.NumBlocks,
		func(bm []byte, _, from, to uint32) bool {
			s.physFree += int64(to - from - disklayout.CountSet(bm, from, to))
			return true
		})
	if err != nil {
		return err
	}
	err = s.sb.ForEachAllocatedInode(s.peekBlock, func(_ uint32, rec *disklayout.Inode) {
		if rec.IsFree() || !rec.IsExtents() {
			return
		}
		if exts, nodes, err := s.extentList(rec); err == nil {
			s.slack += extentSlack(exts, len(nodes))
		}
	})
	if err != nil {
		return err
	}
	return s.assert(s.physFree >= s.slack,
		"free blocks %d below extent slack %d", s.physFree, s.slack)
}
