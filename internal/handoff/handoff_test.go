package handoff

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
)

func block(fill byte) []byte {
	b := make([]byte, disklayout.BlockSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

// fixedChunk is an n-block chunk with retractions, unsealed.
func fixedChunk(n int) *Chunk {
	c := NewChunk(3)
	for i := 0; i < n; i++ {
		c.Blocks[uint32(100+7*i)] = block(byte(i + 1))
		c.Meta[uint32(100+7*i)] = i%2 == 0
	}
	c.Freed = []uint32{60, 12}
	return c
}

// TestSealMatchesRecordedSums pins the checksum function: the sums below
// were produced at commit 7b10c40, where every fold concatenated its input,
// so a seal made before the copy-free fold still verifies after it.
func TestSealMatchesRecordedSums(t *testing.T) {
	c := fixedChunk(8)
	c.Seal()
	if c.Sum != 0x6d8fd313 {
		t.Errorf("chunk seals to %#x, recorded %#x", c.Sum, 0x6d8fd313)
	}
	m := &Manifest{NumChunks: 4, Chain: ChainSums([]uint32{1, 2, 3, c.Sum}),
		FDs: []FDEntry{{FD: 0, Ino: 5}, {FD: 3, Ino: 9}}, Clock: 77}
	m.Seal()
	if m.Sum != 0xdd0fcdb1 {
		t.Errorf("manifest seals to %#x, recorded %#x", m.Sum, 0xdd0fcdb1)
	}
}

// TestChunkVerifyAllocatesNothingPerBlock: verifying costs the sorted block
// list and nothing that grows with the payload.
func TestChunkVerifyAllocatesNothingPerBlock(t *testing.T) {
	allocs := func(n int) float64 {
		c := fixedChunk(n)
		c.Seal()
		return testing.AllocsPerRun(50, func() {
			if err := c.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Two, not one: sort.Slice allocates its swapper only from two elements up.
	if two, eight := allocs(2), allocs(8); eight != two {
		t.Errorf("Verify allocates %v times for 8 blocks, %v for 2", eight, two)
	}
}

func TestSortedBlocksOrdered(t *testing.T) {
	c := NewChunk(0)
	for _, blk := range []uint32{99, 3, 57, 12} {
		c.Blocks[blk] = block(byte(blk))
	}
	got := c.SortedBlocks()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("SortedBlocks out of order: %v", got)
		}
	}
}

func TestChecksumOrderIndependence(t *testing.T) {
	// Two chunks with the same logical content built in different insertion
	// orders must produce the same seal.
	a, b := NewChunk(0), NewChunk(0)
	for _, blk := range []uint32{5, 9, 2} {
		a.Blocks[blk] = block(byte(blk))
	}
	for _, blk := range []uint32{2, 5, 9} {
		b.Blocks[blk] = block(byte(blk))
	}
	a.Freed, b.Freed = []uint32{7, 4}, []uint32{4, 7}
	a.Seal()
	b.Seal()
	if a.Sum != b.Sum {
		t.Error("seal depends on insertion order")
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	c := fixedChunk(2)
	c.Blocks[11] = []byte{1, 2, 3}
	c.Seal()
	if err := c.Verify(); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("short block: %v", err)
	}
	for name, extra := range map[string]FDEntry{
		"duplicate fd": {FD: 0, Ino: 8},
		"fd to ino 0":  {FD: 9, Ino: 0},
	} {
		m := &Manifest{FDs: []FDEntry{{FD: 0, Ino: 5}, {FD: 3, Ino: 9}, extra}, Clock: 77}
		m.Seal()
		if err := m.Verify(nil); !errors.Is(err, fserr.ErrCorrupt) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSealVerifyProperty(t *testing.T) {
	f := func(blks []uint32, fds []uint16, clock uint64) bool {
		c := NewChunk(0)
		for i, blk := range blks {
			if i > 8 {
				break
			}
			c.Blocks[blk%1000] = block(byte(blk))
			if blk%2 == 0 {
				c.Meta[blk%1000] = true
			}
		}
		c.Seal()
		m := &Manifest{NumChunks: 1, Chain: ChainSums([]uint32{c.Sum}), Clock: clock}
		seen := map[fsapi.FD]bool{}
		for i, fd := range fds {
			if i > 8 {
				break
			}
			f := fsapi.FD(fd % 64)
			if seen[f] {
				continue
			}
			seen[f] = true
			m.FDs = append(m.FDs, FDEntry{FD: f, Ino: uint32(fd) + 1})
		}
		m.Seal()
		return c.Verify() == nil && m.Verify([]uint32{c.Sum}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
