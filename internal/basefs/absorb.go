package basefs

import (
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/handoff"
)

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

// AbsorbImage is the base's metadata-downloading interface (§3.2). It is
// called on a freshly mounted instance during recovery, before any new
// operations are admitted. To "reuse existing logic to place [blocks] into
// its cache", it installs through Install, the same entry point every
// internal path uses, so the trusted surface stays small.
//
// The image is verified against this mount's geometry before the first
// Install, so a rejected image installs nothing. Its blocks are then installed
// dirty, in order, and the descriptor table and clock restored, all under one
// hold of mu. Block slices are adopted, not copied (the cache serves them
// directly), so the caller must pass an image it owns: the single defensive
// copy is made where the shadow seals it.
func (fs *FS) AbsorbImage(im *handoff.Image) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := im.Verify(fs.sb); err != nil {
		return fmt.Errorf("basefs: absorb rejected: %w", err)
	}
	for _, b := range im.Blocks {
		fs.bc.Install(b.Blk, b.Data, b.Meta)
	}
	return fs.restoreLocked(im.FDs, im.Clock)
}
