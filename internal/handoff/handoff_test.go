package handoff

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// geometry is the superblock every image here is verified against: blocks
// 1..19 are metadata, 20..59 the journal, 60 up to 4096 data.
var geometry = &disklayout.Superblock{NumBlocks: 4096, JournalStart: 20, JournalLen: 40, DataStart: 60}

func block(fill byte) []byte {
	b := make([]byte, disklayout.BlockSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

// fixedImage is an n-block image with two descriptors, listed in descending
// order and unsealed.
func fixedImage(n int) *Image {
	im := &Image{FDs: []FDEntry{{FD: 3, Ino: 9}, {FD: 0, Ino: 5}}, Clock: 77}
	for i := n - 1; i >= 0; i-- {
		im.Blocks = append(im.Blocks, Block{Blk: uint32(100 + 7*i), Meta: i%2 == 0, Data: block(byte(i + 1))})
	}
	return im
}

// TestSealMatchesRecordedSums pins the checksum function. Nothing persists a
// hand-off, so the value may change with the format; it must not change by
// accident.
func TestSealMatchesRecordedSums(t *testing.T) {
	im := fixedImage(8)
	im.Seal()
	if im.Sum != 0x37ca3d1b {
		t.Errorf("image seals to %#x, recorded %#x", im.Sum, 0x37ca3d1b)
	}
}

// TestVerifyAllocatesNothingPerBlock: verifying costs nothing that grows
// with the payload.
func TestVerifyAllocatesNothingPerBlock(t *testing.T) {
	allocs := func(n int) float64 {
		im := fixedImage(n)
		im.Seal()
		return testing.AllocsPerRun(50, func() {
			if err := im.Verify(geometry); err != nil {
				t.Fatal(err)
			}
		})
	}
	if two, eight := allocs(2), allocs(8); eight != two {
		t.Errorf("Verify allocates %v times for 8 blocks, %v for 2", eight, two)
	}
}

func TestSortedBlocksOrdered(t *testing.T) {
	im := &Image{FDs: []FDEntry{{FD: 7, Ino: 2}, {FD: 1, Ino: 3}}}
	for _, blk := range []uint32{99, 3, 57, 12} {
		im.Blocks = append(im.Blocks, Block{Blk: blk, Data: block(byte(blk))})
	}
	im.Seal()
	for i := 1; i < len(im.Blocks); i++ {
		if im.Blocks[i-1].Blk >= im.Blocks[i].Blk {
			t.Fatalf("sealed blocks out of order: %+v", im.Blocks)
		}
	}
	if im.FDs[0].FD != 1 || im.FDs[1].FD != 7 {
		t.Errorf("sealed fds out of order: %+v", im.FDs)
	}
}

func TestChecksumOrderIndependence(t *testing.T) {
	// Two images with the same logical content built in different insertion
	// orders must produce the same seal.
	a, b := &Image{}, &Image{}
	for _, blk := range []uint32{5, 9, 2} {
		a.Blocks = append(a.Blocks, Block{Blk: blk, Data: block(byte(blk))})
	}
	for _, blk := range []uint32{2, 5, 9} {
		b.Blocks = append(b.Blocks, Block{Blk: blk, Data: block(byte(blk))})
	}
	a.FDs = []FDEntry{{FD: 7, Ino: 4}, {FD: 4, Ino: 7}}
	b.FDs = []FDEntry{{FD: 4, Ino: 7}, {FD: 7, Ino: 4}}
	a.Seal()
	b.Seal()
	if a.Sum != b.Sum {
		t.Error("seal depends on insertion order")
	}
}

func TestImageSealVerifyRoundTrip(t *testing.T) {
	im := fixedImage(8)
	im.Seal()
	if err := im.Verify(geometry); err != nil {
		t.Fatal(err)
	}
}

func TestImageVerifyDetectsTampering(t *testing.T) {
	cases := []struct {
		name string
		mut  func(im *Image)
	}{
		{"block content flip", func(im *Image) { im.Blocks[1].Data[0] ^= 1 }},
		{"meta flag flip", func(im *Image) { im.Blocks[1].Meta = !im.Blocks[1].Meta }},
		{"added block", func(im *Image) { im.Blocks = append(im.Blocks, Block{Blk: 900, Data: block(3)}) }},
		{"fd retargeted", func(im *Image) { im.FDs[0].Ino++ }},
		{"clock tamper", func(im *Image) { im.Clock++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im := fixedImage(3)
			im.Seal()
			tc.mut(im)
			if err := im.Verify(geometry); !errors.Is(err, fserr.ErrCorrupt) {
				t.Errorf("Verify = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestVerifyRejectsMalformed: images whose checksum is right but whose shape
// is not. Each is summed without Seal's sorting, as a faulty or hostile
// producer could.
func TestVerifyRejectsMalformed(t *testing.T) {
	cases := map[string]func(im *Image){
		"short block":          func(im *Image) { im.Blocks[0].Data = []byte{1, 2, 3} },
		"unsorted blocks":      func(im *Image) { im.Blocks[0], im.Blocks[1] = im.Blocks[1], im.Blocks[0] },
		"duplicate block":      func(im *Image) { im.Blocks[1].Blk = im.Blocks[0].Blk },
		"block 0":              func(im *Image) { im.Blocks[0].Blk = 0 },
		"block past the image": func(im *Image) { im.Blocks[1].Blk = geometry.NumBlocks },
		"journal-region block": func(im *Image) { im.Blocks[0].Blk = geometry.JournalStart },
		"duplicate fd":         func(im *Image) { im.FDs[1].FD = im.FDs[0].FD },
		"fd to ino 0":          func(im *Image) { im.FDs[1].Ino = 0 },
	}
	for name, mut := range cases {
		im := fixedImage(2)
		im.Seal()
		mut(im)
		im.Sum = im.checksum()
		if err := im.Verify(geometry); !errors.Is(err, fserr.ErrCorrupt) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSealVerifyProperty(t *testing.T) {
	f := func(blks []uint32, fds []uint16, clock uint64) bool {
		im := &Image{Clock: clock}
		seenBlk := map[uint32]bool{}
		for i, blk := range blks {
			if i > 8 {
				break
			}
			b := geometry.DataStart + blk%1000
			if seenBlk[b] {
				continue
			}
			seenBlk[b] = true
			im.Blocks = append(im.Blocks, Block{Blk: b, Meta: blk%2 == 0, Data: block(byte(blk))})
		}
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
			im.FDs = append(im.FDs, FDEntry{FD: f, Ino: uint32(fd) + 1})
		}
		im.Seal()
		return im.Verify(geometry) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
