package fsck

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fserr"
	"repro/internal/mkfs"
	"repro/internal/oplog"
	"repro/internal/workload"
)

func freshImage(t *testing.T) (*blockdev.Mem, *disklayout.Superblock) {
	t.Helper()
	dev := blockdev.NewMem(4096)
	sb, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	return dev, sb
}

// populatedImage builds an image by running a workload through the base
// filesystem and unmounting cleanly.
func populatedImage(t *testing.T, seed int64) (*blockdev.Mem, *disklayout.Superblock) {
	t.Helper()
	dev, sb := freshImage(t)
	fs, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Generate(workload.Config{
		Profile: workload.Soup, Seed: seed, NumOps: 300, Superblock: sb,
	})
	for _, op := range trace {
		o := op.Clone()
		o.Errno, o.RetFD, o.RetIno, o.RetN = 0, 0, 0, 0
		_ = oplog.Apply(fs, o)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	return dev, sb
}

func TestFreshImageIsClean(t *testing.T) {
	dev, _ := freshImage(t)
	rep := Check(dev)
	for _, p := range rep.Problems {
		t.Errorf("fresh image problem: %s", p)
	}
	if !rep.Clean() || rep.Err() != nil {
		t.Error("fresh image reported unclean")
	}
}

func TestPopulatedImageIsClean(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dev, _ := populatedImage(t, seed)
		rep := Check(dev)
		for _, p := range rep.Problems {
			if p.Severity == Corrupt {
				t.Errorf("seed %d: %s", seed, p)
			}
		}
	}
}

func TestOrphanIsWarningOnly(t *testing.T) {
	dev, _ := freshImage(t)
	fs, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := fs.Create("/doomed", 0o644)
	fs.WriteAt(fd, 0, []byte("orphan payload"))
	if err := fs.Unlink("/doomed"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash with the fd still open: the on-disk image holds an orphan.
	crash := dev.Snapshot()
	fs.Kill()
	if _, _, err := mkfs.Recover(crash); err != nil {
		t.Fatal(err)
	}
	rep := Check(crash)
	if !rep.Clean() {
		for _, p := range rep.Problems {
			t.Errorf("%s", p)
		}
	}
	found := false
	for _, p := range rep.Problems {
		if p.Severity == Warn && strings.Contains(p.What, "orphan") {
			found = true
		}
	}
	if !found {
		t.Error("orphan not reported")
	}
}

// Crafted-image corpus (experiment E8): every attack must be detected as
// corruption, never a panic.
func TestCraftedImageCorpus(t *testing.T) {
	cases := []struct {
		name  string
		craft func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock)
		want  string // substring expected in some Corrupt problem
		only  bool   // the finding above must be the report's only problem
	}{
		{
			name: "superblock bitflip",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				mustCorrupt(t, dev, 0, 13, 0xFF)
			},
			want: "checksum",
		},
		{
			name: "inode pointer outside data region",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				rewriteInode(t, dev, sb, sb.RootIno, func(ino *disklayout.Inode) {
					ino.Direct[1] = 2 // bitmap block
				})
			},
			want: "outside data region",
		},
		{
			name: "ghost inode",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				// Allocated-looking record over an inode that is free in the
				// bitmap.
				ghost := findFreeInode(t, dev, sb)
				rewriteInode(t, dev, sb, ghost, func(ino *disklayout.Inode) {
					ino.Mode = disklayout.MkMode(disklayout.TypeFile, 0o644)
					ino.Nlink = 1
				})
			},
			want: "ghost",
		},
		{
			name: "bitmap says allocated, record free",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				setInodeBit(t, dev, sb, findFreeInode(t, dev, sb))
			},
			want: "record is free",
		},
		{
			name: "dirent to free inode",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				// Point the root's first dirent at an unallocated inode. The
				// root has entries from the populated image.
				blk := firstDirBlock(t, dev, sb, sb.RootIno)
				b, _ := dev.ReadBlock(blk)
				d := disklayout.Dirent{Ino: sb.NumInodes - 2, Name: "evil"}
				disklayout.EncodeDirent(b[0:], d)
				if err := dev.WriteBlock(blk, b); err != nil {
					t.Fatal(err)
				}
			},
			want: "free inode",
		},
		{
			name: "directory cycle via crafted entry",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				blk := firstDirBlock(t, dev, sb, sb.RootIno)
				b, _ := dev.ReadBlock(blk)
				// Find a live subdirectory entry and duplicate it under a new
				// name: the directory becomes reachable twice.
				for s := 0; s < disklayout.DirentsPerBlock; s++ {
					d, err := disklayout.DecodeDirent(b[s*disklayout.DirentSize:])
					if err != nil || d.Ino == 0 {
						continue
					}
					rec := mustReadInode(t, dev, sb, d.Ino)
					if rec.IsDir() {
						free := findFreeSlot(t, b)
						disklayout.EncodeDirent(b[free*disklayout.DirentSize:],
							disklayout.Dirent{Ino: d.Ino, Name: "cycle"})
						if err := dev.WriteBlock(blk, b); err != nil {
							t.Fatal(err)
						}
						return
					}
				}
				t.Skip("populated image has no subdirectory in root block 0")
			},
			want: "reachable twice",
		},
		{
			name: "double-owned block",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				// Give two file inodes the same direct block.
				var victim uint32
				var blk uint32
				forEachInode(t, dev, sb, func(ino uint32, rec *disklayout.Inode) bool {
					if rec.IsFile() && firstDataBlock(rec) != 0 {
						if victim == 0 {
							victim = ino
							blk = firstDataBlock(rec)
							return true
						}
						rewriteInode(t, dev, sb, ino, func(r *disklayout.Inode) {
							claimBlock(r, blk)
						})
						return false
					}
					return true
				})
				if victim == 0 {
					t.Skip("no two files to alias")
				}
			},
			want: "owned by both",
		},
		{
			name: "nlink lie",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				forEachInode(t, dev, sb, func(ino uint32, rec *disklayout.Inode) bool {
					if rec.IsFile() && rec.Nlink == 1 {
						rewriteInode(t, dev, sb, ino, func(r *disklayout.Inode) {
							r.Nlink = 5
						})
						return false
					}
					return true
				})
			},
			want: "nlink",
		},
		{
			name: "block in use but free in bitmap",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				forEachInode(t, dev, sb, func(ino uint32, rec *disklayout.Inode) bool {
					if rec.IsFile() && firstDataBlock(rec) != 0 {
						clearBlockBit(t, dev, sb, firstDataBlock(rec))
						return false
					}
					return true
				})
			},
			want: "free in bitmap",
		},
		{
			// The entry's inode number names the block just past the table;
			// decoding it would invent a checksum finding.
			name: "dirent one past the inode table",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				addRootDirent(t, dev, sb, disklayout.Dirent{Ino: sb.NumInodes, Name: "far"})
			},
			want: "references inode 512 beyond table",
			only: true,
		},
		{
			// The entry's inode number names a block past the device end;
			// reading it would invent an unreadable-table finding.
			name: "dirent past the device end",
			craft: func(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) {
				addRootDirent(t, dev, sb, disklayout.Dirent{Ino: 1 << 20, Name: "farther"})
			},
			want: "references inode 1048576 beyond table",
			only: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, sb := populatedImage(t, 42)
			tc.craft(t, dev, sb)
			rep := Check(dev) // must not panic
			if rep.Clean() {
				t.Fatalf("crafted image passed fsck")
			}
			if !errors.Is(rep.Err(), fserr.ErrCorrupt) {
				t.Errorf("Err() = %v", rep.Err())
			}
			found := false
			for _, p := range rep.Problems {
				if p.Severity == Corrupt && strings.Contains(p.What, tc.want) {
					found = true
				}
			}
			if !found || (tc.only && len(rep.Problems) != 1) {
				t.Errorf("want a Corrupt problem mentioning %q (only=%v); got:", tc.want, tc.only)
				for _, p := range rep.Problems {
					t.Logf("  %s", p)
				}
			}
		})
	}
}

func TestCheckRandomGarbageImageNeverPanics(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		dev := blockdev.NewMem(256)
		// Write pseudo-random garbage everywhere, including block 0.
		b := make([]byte, disklayout.BlockSize)
		x := uint64(seed)*2654435761 + 1
		for blk := uint32(0); blk < 256; blk++ {
			for i := range b {
				x = x*6364136223846793005 + 1442695040888963407
				b[i] = byte(x >> 33)
			}
			if err := dev.WriteBlock(blk, b); err != nil {
				t.Fatal(err)
			}
		}
		rep := Check(dev)
		if rep.Clean() {
			t.Errorf("seed %d: garbage image passed", seed)
		}
	}
}

// --- helpers ---

func mustCorrupt(t *testing.T, dev *blockdev.Mem, blk uint32, off int, xor byte) {
	t.Helper()
	if err := dev.CorruptBlock(blk, off, xor); err != nil {
		t.Fatal(err)
	}
}

func mustReadInode(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock, ino uint32) *disklayout.Inode {
	t.Helper()
	blk, off := sb.InodeLoc(ino)
	b, err := dev.ReadBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := disklayout.DecodeInode(b[off : off+disklayout.InodeSize])
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func rewriteInode(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock, ino uint32, mut func(*disklayout.Inode)) {
	t.Helper()
	blk, off := sb.InodeLoc(ino)
	b, err := dev.ReadBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := disklayout.DecodeInode(b[off : off+disklayout.InodeSize])
	if err != nil {
		t.Fatal(err)
	}
	mut(rec)
	disklayout.PutInode(b[off:], rec) // re-checksummed: a "plausible" attack
	if err := dev.WriteBlock(blk, b); err != nil {
		t.Fatal(err)
	}
}

func findFreeInode(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock) uint32 {
	t.Helper()
	bm, err := dev.ReadBlock(sb.InodeBitmapStart)
	if err != nil {
		t.Fatal(err)
	}
	for ino := uint32(2); ino < sb.NumInodes && ino < disklayout.BitsPerBlock; ino++ {
		if !disklayout.TestBit(bm, ino) {
			return ino
		}
	}
	t.Fatal("no free inode")
	return 0
}

func setInodeBit(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock, ino uint32) {
	t.Helper()
	blk := sb.InodeBitmapStart + ino/disklayout.BitsPerBlock
	b, err := dev.ReadBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	disklayout.SetBit(b, ino%disklayout.BitsPerBlock)
	if err := dev.WriteBlock(blk, b); err != nil {
		t.Fatal(err)
	}
}

func clearBlockBit(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock, blk uint32) {
	t.Helper()
	bmBlk := sb.BlockBitmapStart + blk/disklayout.BitsPerBlock
	b, err := dev.ReadBlock(bmBlk)
	if err != nil {
		t.Fatal(err)
	}
	disklayout.ClearBit(b, blk%disklayout.BitsPerBlock)
	if err := dev.WriteBlock(bmBlk, b); err != nil {
		t.Fatal(err)
	}
}

func firstDirBlock(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock, ino uint32) uint32 {
	t.Helper()
	rec := mustReadInode(t, dev, sb, ino)
	if rec.Direct[0] == 0 {
		t.Fatal("directory has no blocks")
	}
	return rec.Direct[0]
}

// addRootDirent writes d into a free slot of the root's first directory
// block, leaving every existing entry in place.
func addRootDirent(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock, d disklayout.Dirent) {
	t.Helper()
	blk := firstDirBlock(t, dev, sb, sb.RootIno)
	b, err := dev.ReadBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	disklayout.EncodeDirent(b[findFreeSlot(t, b)*disklayout.DirentSize:], d)
	if err := dev.WriteBlock(blk, b); err != nil {
		t.Fatal(err)
	}
}

func findFreeSlot(t *testing.T, b []byte) int {
	t.Helper()
	for s := 0; s < disklayout.DirentsPerBlock; s++ {
		d, err := disklayout.DecodeDirent(b[s*disklayout.DirentSize:])
		if err == nil && d.Ino == 0 {
			return s
		}
	}
	t.Fatal("no free dirent slot")
	return 0
}

// firstDataBlock returns the first mapped data block of a file inode under
// either layout (0 if it maps nothing inline).
func firstDataBlock(rec *disklayout.Inode) uint32 {
	if rec.IsExtents() {
		for _, e := range rec.InlineExtents() {
			if e.Len != 0 {
				return e.Start
			}
		}
		return 0
	}
	for _, p := range rec.Direct {
		if p != 0 {
			return p
		}
	}
	return 0
}

// claimBlock rewrites a file record so its mapping claims exactly blk,
// whichever layout the record uses. Previously owned blocks become leaks.
func claimBlock(r *disklayout.Inode, blk uint32) {
	if r.IsExtents() {
		r.SetInlineExtents([]disklayout.Extent{{FileOff: 0, Start: blk, Len: 1}})
		r.Indirect = 0
		return
	}
	r.Direct = [disklayout.NumDirect]uint32{blk}
	r.Indirect = 0
	r.DblIndir = 0
}

func forEachInode(t *testing.T, dev *blockdev.Mem, sb *disklayout.Superblock, f func(uint32, *disklayout.Inode) bool) {
	t.Helper()
	for ino := uint32(1); ino < sb.NumInodes; ino++ {
		blk, off := sb.InodeLoc(ino)
		b, err := dev.ReadBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := disklayout.DecodeInode(b[off : off+disklayout.InodeSize])
		if err != nil || rec.IsFree() {
			continue
		}
		if !f(ino, rec) {
			return
		}
	}
}
