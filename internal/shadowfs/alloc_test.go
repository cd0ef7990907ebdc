package shadowfs

import (
	"errors"
	"testing"

	"repro/internal/disklayout"
	"repro/internal/fserr"
)

// fakeBitmap plants a three-block bitmap with every bit set in the shadow's
// overlay, at data blocks the image does not use, and returns its first
// block. firstClear and disklayout.ScanBitmap take the bitmap's start block
// as an argument, so they can be driven over it without a 256 MiB image.
func fakeBitmap(t *testing.T, s *Shadow) uint32 {
	t.Helper()
	start := s.sb.NumBlocks - 8
	for i := uint32(0); i < 3; i++ {
		full := make([]byte, disklayout.BlockSize)
		for j := range full {
			full[j] = 0xff
		}
		s.overlay[start+i] = full
	}
	return start
}

func TestFirstClearBoundaries(t *testing.T) {
	const bpb = disklayout.BitsPerBlock
	cases := []struct {
		name   string
		lo, hi uint32
		clear  []uint32
		want   uint32 // ErrNoSpace when want == hi
	}{
		{"first bit of the range", 0, 3 * bpb, []uint32{0}, 0},
		{"last bit of a byte", 0, 3 * bpb, []uint32{7}, 7},
		{"first bit of a byte", 0, 3 * bpb, []uint32{8}, 8},
		{"last bit of a 64-bit word", 0, 3 * bpb, []uint32{63}, 63},
		{"first bit of a 64-bit word", 0, 3 * bpb, []uint32{64, 200}, 64},
		{"last bit of a bitmap block", 0, 3 * bpb, []uint32{bpb - 1}, bpb - 1},
		{"first bit of the next bitmap block", 0, 3 * bpb, []uint32{bpb, bpb + 1}, bpb},
		{"only the third bitmap block has room", 5, 3 * bpb, []uint32{2*bpb + 4097}, 2*bpb + 4097},
		{"range starts inside a byte: clear bits below it do not count", 77, 3 * bpb, []uint32{3, 72, 76, 79}, 79},
		{"range starts at its clear bit", 77, 3 * bpb, []uint32{77}, 77},
		{"range starts in the second block", bpb + 13, 3 * bpb, []uint32{12, bpb + 12, bpb + 14}, bpb + 14},
		{"last bitmap block is partial: its last bit", 99, 2*bpb + 100, []uint32{2*bpb + 99}, 2*bpb + 99},
		{"last bitmap block is partial: the bit past the end does not count", 99, 2*bpb + 100, []uint32{2*bpb + 100}, 2*bpb + 100},
		{"range ends inside the first block", 99, 1000, []uint32{1000, bpb}, 1000},
		{"full", 99, 3 * bpb, nil, 3 * bpb},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _ := freshShadow(t, 1024)
			start := fakeBitmap(t, s)
			for _, bit := range tc.clear {
				disklayout.ClearBit(s.overlay[start+bit/bpb], bit%bpb)
			}
			got, err := s.firstClear(start, tc.lo, tc.hi)
			if tc.want == tc.hi {
				if !errors.Is(err, fserr.ErrNoSpace) {
					t.Fatalf("firstClear(%d,%d) = (%d, %v), want ErrNoSpace", tc.lo, tc.hi, got, err)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("firstClear(%d,%d) = (%d, %v), want %d", tc.lo, tc.hi, got, err, tc.want)
			}
		})
	}
}

// TestScanBitmapVisitsEachBlockOnce pins the helper's contract: one call per
// covering bitmap block, with the in-range bits of that block and nothing
// outside [lo, hi), and an early stop when fn says so.
func TestScanBitmapVisitsEachBlockOnce(t *testing.T) {
	const bpb = disklayout.BitsPerBlock
	s, _, _ := freshShadow(t, 1024)
	start := fakeBitmap(t, s)
	type visit struct{ base, from, to uint32 }
	var got []visit
	err := disklayout.ScanBitmap(s.peekBlock, start, 77, 2*bpb+100, func(_ []byte, base, from, to uint32) bool {
		got = append(got, visit{base, from, to})
		return true
	})
	want := []visit{{0, 77, bpb}, {bpb, 0, bpb}, {2 * bpb, 0, 100}}
	if err != nil || len(got) != len(want) {
		t.Fatalf("visits = %v, %v; want %v", got, err, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("visit %d = %v, want %v", i, got[i], want[i])
		}
	}
	n := 0
	if err := disklayout.ScanBitmap(s.peekBlock, start, bpb+5, 3*bpb, func([]byte, uint32, uint32, uint32) bool { n++; return false }); err != nil || n != 1 {
		t.Errorf("scan that stops at once made %d visits (%v), want 1", n, err)
	}
}

// TestSeedSpaceMatchesPerBitCount checks the popcount against the one bit at
// a time definition on a real image whose data region starts inside a byte
// and ends inside the only bitmap block, with blocks allocated and freed.
func TestSeedSpaceMatchesPerBitCount(t *testing.T) {
	s, _, sb := freshShadow(t, 1024)
	if sb.DataStart%8 == 0 {
		t.Fatalf("DataStart %d is byte-aligned; the test wants it not to be", sb.DataStart)
	}
	var blks []uint32
	for i := 0; i < 40; i++ {
		b, err := s.allocBlock(false)
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, b)
	}
	for _, i := range []int{0, 7, 8, 39} {
		if err := s.freeBlock(blks[i]); err != nil {
			t.Fatal(err)
		}
	}
	tracked := s.physFree
	if err := s.seedSpace(); err != nil {
		t.Fatal(err)
	}
	var want int64
	for blk := sb.DataStart; blk < sb.NumBlocks; blk++ {
		used, err := s.blockBit(blk)
		if err != nil {
			t.Fatal(err)
		}
		if !used {
			want++
		}
	}
	if s.physFree != want || tracked != want {
		t.Errorf("physFree: seeded %d, tracked through alloc/free %d, per-bit count %d", s.physFree, tracked, want)
	}
}

// TestAllocatorsAreLowestFreeFirst pins the policy that keeps a replay's
// inode and block numbers identical to the base's: both allocators return
// the lowest free number, so one freed below the rest is the next one out.
func TestAllocatorsAreLowestFreeFirst(t *testing.T) {
	t.Run("blocks", func(t *testing.T) {
		s, _, sb := freshShadow(t, 1024)
		var blks []uint32
		for i := 0; i < 20; i++ {
			b, err := s.allocBlock(false)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && b != blks[i-1]+1 {
				t.Fatalf("allocation %d = block %d, want %d (ascending from the lowest free)", i, b, blks[i-1]+1)
			}
			blks = append(blks, b)
		}
		if blks[0] < sb.DataStart {
			t.Fatalf("first allocation %d lies below the data region at %d", blks[0], sb.DataStart)
		}
		for _, i := range []int{11, 3} {
			if err := s.freeBlock(blks[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, want := range []uint32{blks[3], blks[11], blks[19] + 1} {
			if got, err := s.allocBlockRaw(false); err != nil || got != want {
				t.Fatalf("allocBlockRaw = (%d, %v), want %d", got, err, want)
			}
		}
	})
	t.Run("inodes", func(t *testing.T) {
		s, _, _ := freshShadow(t, 1024)
		type held struct {
			ino uint32
			rec *disklayout.Inode
		}
		var inos []held
		for i := 0; i < 40; i++ { // more than one table block's worth
			ino, rec, err := s.allocInode(disklayout.TypeFile, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.writeInode(ino, rec); err != nil {
				t.Fatal(err)
			}
			if i > 0 && ino != inos[i-1].ino+1 {
				t.Fatalf("allocation %d = inode %d, want %d", i, ino, inos[i-1].ino+1)
			}
			inos = append(inos, held{ino, rec})
		}
		for _, i := range []int{33, 5} {
			if err := s.freeInode(inos[i].ino, inos[i].rec); err != nil {
				t.Fatal(err)
			}
		}
		for _, want := range []uint32{inos[5].ino, inos[33].ino, inos[39].ino + 1} {
			ino, rec, err := s.allocInode(disklayout.TypeFile, 0o644)
			if err != nil || ino != want {
				t.Fatalf("allocInode = (%d, %v), want %d", ino, err, want)
			}
			if err := s.writeInode(ino, rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("full image", func(t *testing.T) {
		s, _, sb := freshShadow(t, 1024)
		for blk := sb.DataStart; blk < sb.NumBlocks; blk++ {
			if used, err := s.blockBit(blk); err != nil {
				t.Fatal(err)
			} else if !used {
				if err := s.setBlockBit(blk, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.allocBlockRaw(false); !errors.Is(err, fserr.ErrNoSpace) {
			t.Errorf("allocBlockRaw on a full image: %v, want ErrNoSpace", err)
		}
		if _, err := s.allocBlock(false); !errors.Is(err, fserr.ErrNoSpace) {
			t.Errorf("allocBlock on a full image: %v, want ErrNoSpace", err)
		}
		for ino := uint32(1); ino < sb.NumInodes; ino++ {
			if used, err := s.inodeBit(ino); err != nil {
				t.Fatal(err)
			} else if !used {
				if err := s.setInodeBit(ino, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, _, err := s.allocInode(disklayout.TypeFile, 0o644); !errors.Is(err, fserr.ErrNoSpace) {
			t.Errorf("allocInode with every inode taken: %v, want ErrNoSpace", err)
		}
	})
}
