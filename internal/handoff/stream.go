package handoff

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// Chunk is one sealed slice of a handoff stream. The shadow's replay seals
// its whole overlay as one chunk; the format carries streams of several.
// Chunks are ordered: a block appearing in a later chunk overrides any
// earlier image, and a block listed in Freed retracts earlier images
// entirely (the replay allocated it and then freed it again).
type Chunk struct {
	// Index is the zero-based position of this chunk in the stream.
	Index int
	// Blocks maps block numbers to their contents as of this chunk.
	Blocks map[uint32][]byte
	// Meta marks which of Blocks are filesystem metadata.
	Meta map[uint32]bool
	// Freed lists blocks whose earlier images this chunk retracts.
	Freed []uint32
	// Sum is the integrity checksum over the chunk; computed by Seal,
	// verified by Verify.
	Sum uint32
}

// NewChunk returns an empty chunk with the given stream position.
func NewChunk(index int) *Chunk {
	return &Chunk{Index: index, Blocks: make(map[uint32][]byte), Meta: make(map[uint32]bool)}
}

// Empty reports whether the chunk carries no block images or retractions.
func (c *Chunk) Empty() bool { return len(c.Blocks) == 0 && len(c.Freed) == 0 }

// SortedBlocks returns the chunk's block numbers in ascending order, the
// canonical iteration order for checksumming and installation.
func (c *Chunk) SortedBlocks() []uint32 {
	out := make([]uint32, 0, len(c.Blocks))
	for blk := range c.Blocks {
		out = append(out, blk)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *Chunk) checksum() uint32 {
	var sum chain
	var w [16]byte
	binary.LittleEndian.PutUint64(w[:8], uint64(c.Index))
	sum.fold(w[:8])
	for _, blk := range c.SortedBlocks() {
		binary.LittleEndian.PutUint32(w[:4], blk)
		meta := uint32(0)
		if c.Meta[blk] {
			meta = 1
		}
		binary.LittleEndian.PutUint32(w[4:8], meta)
		sum.fold(w[:8])
		sum.fold(c.Blocks[blk])
	}
	freed := append([]uint32(nil), c.Freed...)
	sort.Slice(freed, func(i, j int) bool { return freed[i] < freed[j] })
	for _, blk := range freed {
		binary.LittleEndian.PutUint32(w[:4], blk)
		sum.fold(w[:4])
	}
	return sum.acc
}

// Seal computes and stores the chunk's integrity checksum.
func (c *Chunk) Seal() { c.Sum = c.checksum() }

// Verify reports whether the chunk is internally consistent: checksum
// matches and every block image is full-size. The base calls this before
// absorbing the chunk.
func (c *Chunk) Verify() error {
	for blk, data := range c.Blocks {
		if len(data) != disklayout.BlockSize {
			return fmt.Errorf("handoff: chunk %d block %d has %d bytes: %w", c.Index, blk, len(data), fserr.ErrCorrupt)
		}
	}
	if got := c.checksum(); got != c.Sum {
		return fmt.Errorf("handoff: chunk %d checksum %#x, want %#x: %w", c.Index, got, c.Sum, fserr.ErrCorrupt)
	}
	return nil
}

// Manifest finalizes a chunk stream. It carries everything that only makes
// sense at the end of replay — the descriptor table and the logical clock —
// plus a chained checksum binding the exact sequence of chunks the base
// should have absorbed, so a dropped, duplicated, or reordered chunk is
// caught before resume even though each chunk verified individually.
type Manifest struct {
	// NumChunks is how many chunks preceded this manifest.
	NumChunks int
	// Chain is the fold of every chunk's Sum in stream order.
	Chain uint32
	// FDs is the recovered descriptor table.
	FDs []FDEntry
	// Clock is the logical time after the last replayed operation.
	Clock uint64
	// Sum is the integrity checksum over the manifest itself.
	Sum uint32
}

// ChainSums folds an ordered list of chunk checksums into the stream chain
// value. Both sides compute it independently: the shadow as it seals chunks,
// the base as it absorbs them.
func ChainSums(sums []uint32) uint32 {
	var acc uint32
	var w [8]byte
	for _, s := range sums {
		binary.LittleEndian.PutUint32(w[:4], acc)
		binary.LittleEndian.PutUint32(w[4:8], s)
		acc = disklayout.Checksum(w[:8])
	}
	return acc
}

func (m *Manifest) checksum() uint32 {
	var sum chain
	var w [16]byte
	binary.LittleEndian.PutUint64(w[:8], uint64(m.NumChunks))
	binary.LittleEndian.PutUint32(w[8:12], m.Chain)
	sum.fold(w[:12])
	for _, e := range m.FDs {
		binary.LittleEndian.PutUint64(w[:8], uint64(e.FD))
		binary.LittleEndian.PutUint32(w[8:12], e.Ino)
		sum.fold(w[:12])
	}
	binary.LittleEndian.PutUint64(w[:8], m.Clock)
	sum.fold(w[:8])
	return sum.acc
}

// Seal computes and stores the manifest's integrity checksum.
func (m *Manifest) Seal() { m.Sum = m.checksum() }

// Verify checks the manifest against the chunk stream the base actually
// absorbed: its own checksum, the chunk count, and the chained fold of the
// absorbed chunks' sums. absorbedSums must be the Sum of every chunk in the
// order received.
func (m *Manifest) Verify(absorbedSums []uint32) error {
	if got := m.checksum(); got != m.Sum {
		return fmt.Errorf("handoff: manifest checksum %#x, want %#x: %w", got, m.Sum, fserr.ErrCorrupt)
	}
	if len(absorbedSums) != m.NumChunks {
		return fmt.Errorf("handoff: absorbed %d chunks, manifest expects %d: %w", len(absorbedSums), m.NumChunks, fserr.ErrCorrupt)
	}
	if got := ChainSums(absorbedSums); got != m.Chain {
		return fmt.Errorf("handoff: chunk chain %#x, want %#x: %w", got, m.Chain, fserr.ErrCorrupt)
	}
	seen := make(map[fsapi.FD]bool, len(m.FDs))
	for _, e := range m.FDs {
		if seen[e.FD] {
			return fmt.Errorf("handoff: duplicate fd %d: %w", e.FD, fserr.ErrCorrupt)
		}
		if e.Ino == 0 {
			return fmt.Errorf("handoff: fd %d maps to inode 0: %w", e.FD, fserr.ErrCorrupt)
		}
		seen[e.FD] = true
	}
	return nil
}
