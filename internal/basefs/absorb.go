package basefs

import (
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/handoff"
)

func (fs *FS) checkAbsorbRange(blk uint32) error {
	if blk == 0 || blk >= fs.sb.NumBlocks {
		return fmt.Errorf("basefs: absorb block %d out of range: %w", blk, fserr.ErrCorrupt)
	}
	if blk >= fs.sb.JournalStart && blk < fs.sb.JournalStart+fs.sb.JournalLen {
		return fmt.Errorf("basefs: absorb block %d targets the journal region: %w", blk, fserr.ErrCorrupt)
	}
	return nil
}

// restoreLocked installs the recovered descriptor table and continues the
// logical clock; the final step of absorption.
// Each inode must decode and be allocated in the absorbed state; that read
// goes through the just-installed buffers.
func (fs *FS) restoreLocked(fds []handoff.FDEntry, clock uint64) error {
	// The absorbed bitmaps and inode table replace whatever the mount seeded
	// the space accounting from; recompute it over the installed state. Any
	// stale per-file extent state is invalidated wholesale.
	fs.delMu.Lock()
	fs.delalloc = make(map[uint32]*delFile)
	clear(fs.pending)
	fs.delMu.Unlock()
	if err := fs.seedAccounting(); err != nil {
		return fmt.Errorf("basefs: absorb accounting: %w", err)
	}
	fs.fds = make(map[fsapi.FD]uint32, len(fds))
	for _, e := range fds {
		ci, err := fs.getAllocInode(e.Ino)
		if err != nil {
			return fmt.Errorf("basefs: absorb fd %d -> inode %d: %w", e.FD, e.Ino, err)
		}
		if ci.Inode.IsDir() {
			return fmt.Errorf("basefs: absorb fd %d maps to a directory: %w", e.FD, fserr.ErrCorrupt)
		}
		fs.fds[e.FD] = e.Ino
		ci.Opens++
	}
	if clock > fs.clock.Load() {
		fs.clock.Store(clock)
	}
	return nil
}

// AbsorbChunk and AbsorbManifest are the base's metadata-downloading
// interface (§3.2). They are called on a freshly mounted instance during
// recovery, before any new operations are admitted, and "reuse existing logic
// to place [blocks] into its cache": Install is the same entry point every
// internal path uses, so the trusted surface stays small.
//
// AbsorbChunk installs one sealed chunk of the handoff stream, marked dirty,
// while the shadow may still be replaying the tail. Chunks must arrive in
// index order; each is verified individually, and its checksum is recorded so
// AbsorbManifest can later prove the stream arrived complete and unreordered.
// Freed blocks retract earlier installs. Block slices are adopted, not copied
// (the cache serves them directly), so the caller must pass a chunk it owns:
// the single defensive copy is made where the shadow seals the chunk.
func (fs *FS) AbsorbChunk(c *handoff.Chunk) error {
	if err := c.Verify(); err != nil {
		return fmt.Errorf("basefs: absorb rejected: %w", err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if c.Index != fs.absorbNext {
		return fmt.Errorf("basefs: absorb chunk %d, expected %d: %w", c.Index, fs.absorbNext, fserr.ErrCorrupt)
	}
	for _, blk := range c.SortedBlocks() {
		if err := fs.checkAbsorbRange(blk); err != nil {
			return err
		}
		fs.bc.Install(blk, c.Blocks[blk], c.Meta[blk])
	}
	for _, blk := range c.Freed {
		if err := fs.checkAbsorbRange(blk); err != nil {
			return err
		}
		fs.bc.Drop(blk)
	}
	fs.absorbSums = append(fs.absorbSums, c.Sum)
	fs.absorbNext++
	return nil
}

// AbsorbManifest finalizes the handoff: it verifies the manifest's chained
// checksum against the chunks actually absorbed, then restores the descriptor
// table and continues the logical clock.
func (fs *FS) AbsorbManifest(m *handoff.Manifest) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := m.Verify(fs.absorbSums); err != nil {
		return fmt.Errorf("basefs: absorb rejected: %w", err)
	}
	fs.absorbSums = nil
	fs.absorbNext = 0
	return fs.restoreLocked(m.FDs, m.Clock)
}
