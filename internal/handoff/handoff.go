// Package handoff defines the lean, checksummed interface that carries the
// shadow filesystem's output back to the rebooted base: "a set of file
// descriptors and on-disk metadata structures" (§3.2).
//
// The paper stresses that this interface "requires a lean, well-defined, and
// thoroughly tested interface" (§4.3) because it is trusted code shared
// between the two worlds. What crosses is therefore one plain value: a sealed
// Image holding the block images the shadow produced (deep-copied when it
// seals them), the descriptor table and the clock, under one checksum.
// Image.Verify is the one place that decides what may cross; the base calls
// it before installing anything.
package handoff

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// FDEntry restores one application-visible file descriptor.
type FDEntry struct {
	FD  fsapi.FD
	Ino uint32
}

// Block is one block image of the hand-off.
type Block struct {
	Blk uint32
	// Meta marks filesystem metadata, as opposed to file data.
	Meta bool
	Data []byte
}

// Image is the whole hand-off: everything the recovery produced, sealed by
// the shadow and absorbed by the base in one call.
type Image struct {
	// Blocks are the block images, in ascending Blk order.
	Blocks []Block
	// FDs is the recovered descriptor table, in ascending FD order.
	FDs []FDEntry
	// Clock is the logical time after the last replayed operation.
	Clock uint64
	// Sum is the CRC32C over all of the above; computed by Seal, checked by
	// Verify.
	Sum uint32
}

func (im *Image) checksum() uint32 {
	var sum uint32
	var w [12]byte
	for _, b := range im.Blocks {
		binary.LittleEndian.PutUint32(w[:4], b.Blk)
		meta := uint32(0)
		if b.Meta {
			meta = 1
		}
		binary.LittleEndian.PutUint32(w[4:8], meta)
		sum = disklayout.ChecksumUpdate(sum, w[:8])
		sum = disklayout.ChecksumUpdate(sum, b.Data)
	}
	for _, e := range im.FDs {
		binary.LittleEndian.PutUint64(w[:8], uint64(e.FD))
		binary.LittleEndian.PutUint32(w[8:12], e.Ino)
		sum = disklayout.ChecksumUpdate(sum, w[:12])
	}
	binary.LittleEndian.PutUint64(w[:8], im.Clock)
	return disklayout.ChecksumUpdate(sum, w[:8])
}

// Seal puts the blocks and the descriptor table in their canonical order
// and stores the image's checksum.
func (im *Image) Seal() {
	sort.Slice(im.Blocks, func(i, j int) bool { return im.Blocks[i].Blk < im.Blocks[j].Blk })
	sort.Slice(im.FDs, func(i, j int) bool { return im.FDs[i].FD < im.FDs[j].FD })
	im.Sum = im.checksum()
}

// Verify reports whether the image may be installed over sb's geometry: the
// checksum matches; blocks are strictly ascending, full-size, and neither
// block 0, past the image, nor in the journal region; descriptors are
// strictly ascending and none maps to inode 0. Whether each descriptor's
// inode is an allocated file depends on the installed blocks, so the base
// checks that after installing them.
func (im *Image) Verify(sb *disklayout.Superblock) error {
	if got := im.checksum(); got != im.Sum {
		return fmt.Errorf("handoff: checksum %#x, want %#x: %w", got, im.Sum, fserr.ErrCorrupt)
	}
	for i, b := range im.Blocks {
		switch {
		case i > 0 && b.Blk <= im.Blocks[i-1].Blk:
			return fmt.Errorf("handoff: block %d follows block %d: %w", b.Blk, im.Blocks[i-1].Blk, fserr.ErrCorrupt)
		case len(b.Data) != disklayout.BlockSize:
			return fmt.Errorf("handoff: block %d has %d bytes: %w", b.Blk, len(b.Data), fserr.ErrCorrupt)
		case b.Blk == 0 || b.Blk >= sb.NumBlocks:
			return fmt.Errorf("handoff: block %d out of range: %w", b.Blk, fserr.ErrCorrupt)
		case b.Blk >= sb.JournalStart && b.Blk < sb.JournalStart+sb.JournalLen:
			return fmt.Errorf("handoff: block %d targets the journal region: %w", b.Blk, fserr.ErrCorrupt)
		}
	}
	for i, e := range im.FDs {
		switch {
		case i > 0 && e.FD <= im.FDs[i-1].FD:
			return fmt.Errorf("handoff: fd %d follows fd %d: %w", e.FD, im.FDs[i-1].FD, fserr.ErrCorrupt)
		case e.Ino == 0:
			return fmt.Errorf("handoff: fd %d maps to inode 0: %w", e.FD, fserr.ErrCorrupt)
		}
	}
	return nil
}
