package handoff

import (
	"errors"
	"testing"

	"repro/internal/fserr"
)

// stream builds a three-chunk handoff: chunk 0 carries an early image of block 10 plus a block that is
// later freed, chunk 1 overrides block 10 and retracts the freed block,
// chunk 2 adds block 42.
func stream() ([]*Chunk, *Manifest) {
	c0 := NewChunk(0)
	c0.Blocks[10] = block(7) // stale image, overridden by chunk 1
	c0.Meta[10] = true
	c0.Blocks[60] = block(6) // allocated then freed during replay
	c0.Seal()

	c1 := NewChunk(1)
	c1.Blocks[10] = block(1)
	c1.Meta[10] = true
	c1.Freed = []uint32{60}
	c1.Seal()

	c2 := NewChunk(2)
	c2.Blocks[42] = block(2)
	c2.Seal()

	chunks := []*Chunk{c0, c1, c2}
	m := &Manifest{
		NumChunks: len(chunks),
		Chain:     ChainSums([]uint32{c0.Sum, c1.Sum, c2.Sum}),
		FDs:       []FDEntry{{FD: 0, Ino: 5}, {FD: 3, Ino: 9}},
		Clock:     77,
	}
	m.Seal()
	return chunks, m
}

func TestChunkSealVerifyRoundTrip(t *testing.T) {
	chunks, m := stream()
	for _, c := range chunks {
		if err := c.Verify(); err != nil {
			t.Fatalf("chunk %d: %v", c.Index, err)
		}
	}
	sums := []uint32{chunks[0].Sum, chunks[1].Sum, chunks[2].Sum}
	if err := m.Verify(sums); err != nil {
		t.Fatalf("manifest: %v", err)
	}
}

func TestChunkVerifyDetectsTampering(t *testing.T) {
	cases := []struct {
		name string
		mut  func(c *Chunk)
	}{
		{"block content flip", func(c *Chunk) { c.Blocks[10][0] ^= 1 }},
		{"meta flag flip", func(c *Chunk) { c.Meta[10] = false }},
		{"index skew", func(c *Chunk) { c.Index++ }},
		{"freed injection", func(c *Chunk) { c.Freed = append(c.Freed, 10) }},
		{"added block", func(c *Chunk) { c.Blocks[11] = block(3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chunks, _ := stream()
			tc.mut(chunks[1])
			if err := chunks[1].Verify(); !errors.Is(err, fserr.ErrCorrupt) {
				t.Errorf("Verify = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestManifestCatchesStreamDamage(t *testing.T) {
	cases := []struct {
		name string
		sums func(chunks []*Chunk) []uint32
	}{
		{"dropped chunk", func(cs []*Chunk) []uint32 { return []uint32{cs[0].Sum, cs[2].Sum} }},
		{"reordered chunks", func(cs []*Chunk) []uint32 { return []uint32{cs[1].Sum, cs[0].Sum, cs[2].Sum} }},
		{"duplicated chunk", func(cs []*Chunk) []uint32 {
			return []uint32{cs[0].Sum, cs[1].Sum, cs[1].Sum, cs[2].Sum}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chunks, m := stream()
			if err := m.Verify(tc.sums(chunks)); !errors.Is(err, fserr.ErrCorrupt) {
				t.Errorf("Verify = %v, want ErrCorrupt", err)
			}
		})
	}
	t.Run("manifest tamper", func(t *testing.T) {
		chunks, m := stream()
		m.Clock++
		sums := []uint32{chunks[0].Sum, chunks[1].Sum, chunks[2].Sum}
		if err := m.Verify(sums); !errors.Is(err, fserr.ErrCorrupt) {
			t.Errorf("Verify = %v, want ErrCorrupt", err)
		}
	})
}
