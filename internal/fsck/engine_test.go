package fsck

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/mkfs"
	"repro/internal/oplog"
	"repro/internal/workload"
)

// requireSameReport pins that two runs of the engine report the same
// findings, in the same order, with the same stats.
func requireSameReport(t *testing.T, want, got *Report, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Problems, got.Problems) {
		t.Errorf("%s: problem lists diverge\nwant (%d):", label, len(want.Problems))
		for _, p := range want.Problems {
			t.Logf("  %s", p)
		}
		t.Logf("got (%d):", len(got.Problems))
		for _, p := range got.Problems {
			t.Logf("  %s", p)
		}
		return
	}
	if want.InodesChecked != got.InodesChecked || want.BlocksOwned != got.BlocksOwned ||
		want.DirsWalked != got.DirsWalked || want.ChecksRun != got.ChecksRun {
		t.Errorf("%s: stats diverge: want {%d %d %d %d}, got {%d %d %d %d}",
			label, want.InodesChecked, want.BlocksOwned, want.DirsWalked, want.ChecksRun,
			got.InodesChecked, got.BlocksOwned, got.DirsWalked, got.ChecksRun)
	}
	if want.Unreadable != got.Unreadable {
		t.Errorf("%s: Unreadable diverges: %v vs %v", label, want.Unreadable, got.Unreadable)
	}
}

// tableScope returns a scope covering the whole inode table, which turns
// CheckScoped into the full check.
func tableScope(sb *disklayout.Superblock) *Scope {
	sc := NewScope()
	for i := uint32(0); i < sb.InodeTableLen; i++ {
		sc.Add(sb.InodeTableStart + i)
	}
	return sc
}

// TestEngineCorpusFindings runs the image corpus through the one engine:
// clean, crafted-corrupt, garbage, and fault-injected images. Each image
// must produce the finding TestCraftedImageCorpus or
// TestBitmapReadFaultDegradesPerBlock expects for its damage, with the same
// message, and the full-coverage scoped check must report exactly what
// Check reports.
func TestEngineCorpusFindings(t *testing.T) {
	images := []struct {
		name  string
		build func(t *testing.T) *blockdev.Mem
		// where and what locate the expected Corrupt finding: where is a
		// prefix of its location, what a substring of its message. Both
		// empty means a report with no Corrupt finding.
		where, what string
	}{
		{"fresh", func(t *testing.T) *blockdev.Mem {
			dev, _ := freshImage(t)
			return dev
		}, "", ""},
		{"populated", func(t *testing.T) *blockdev.Mem {
			dev, _ := populatedImage(t, 7)
			return dev
		}, "", ""},
		{"ghost inode", func(t *testing.T) *blockdev.Mem {
			dev, sb := populatedImage(t, 8)
			ghost := findFreeInode(t, dev, sb)
			rewriteInode(t, dev, sb, ghost, func(ino *disklayout.Inode) {
				ino.Mode = disklayout.MkMode(disklayout.TypeFile, 0o644)
				ino.Nlink = 1
			})
			return dev
		}, "", "ghost: type 1 record but free in bitmap"},
		{"nlink lie", func(t *testing.T) *blockdev.Mem {
			dev, sb := populatedImage(t, 9)
			forEachInode(t, dev, sb, func(ino uint32, rec *disklayout.Inode) bool {
				if rec.IsFile() && rec.Nlink == 1 {
					rewriteInode(t, dev, sb, ino, func(r *disklayout.Inode) { r.Nlink = 5 })
					return false
				}
				return true
			})
			return dev
		}, "", "nlink 5, found 1 references"},
		{"owned block free in bitmap", func(t *testing.T) *blockdev.Mem {
			dev, sb := populatedImage(t, 10)
			forEachInode(t, dev, sb, func(ino uint32, rec *disklayout.Inode) bool {
				if p := firstDataBlock(rec); rec.IsFile() && p != 0 {
					clearBlockBit(t, dev, sb, p)
					return false
				}
				return true
			})
			return dev
		}, "block ", "but free in bitmap"},
		{"pointer outside data region", func(t *testing.T) *blockdev.Mem {
			dev, sb := populatedImage(t, 11)
			rewriteInode(t, dev, sb, sb.RootIno, func(ino *disklayout.Inode) {
				ino.Direct[1] = 2
			})
			return dev
		}, "inode 1", "direct[1] pointer 2 outside data region"},
		{"superblock bitflip", func(t *testing.T) *blockdev.Mem {
			dev, _ := populatedImage(t, 12)
			mustCorrupt(t, dev, 0, 13, 0xFF)
			return dev
		}, "superblock", "checksum"},
		{"garbage", func(t *testing.T) *blockdev.Mem {
			dev := blockdev.NewMem(256)
			b := make([]byte, disklayout.BlockSize)
			x := uint64(3)*2654435761 + 1
			for blk := uint32(0); blk < 256; blk++ {
				for i := range b {
					x = x*6364136223846793005 + 1442695040888963407
					b[i] = byte(x >> 33)
				}
				if err := dev.WriteBlock(blk, b); err != nil {
					t.Fatal(err)
				}
			}
			return dev
		}, "superblock", ""},
		{"deterministic read fault in table", func(t *testing.T) *blockdev.Mem {
			dev, sb := populatedImage(t, 13)
			plan := blockdev.NewFaultPlan(1)
			plan.ReadErrBlocks = map[uint32]bool{sb.InodeTableStart + 1: true}
			dev.SetFaults(plan)
			return dev
		}, "inode 32", "table block unreadable"},
		{"unreadable superblock", func(t *testing.T) *blockdev.Mem {
			dev, _ := populatedImage(t, 14)
			plan := blockdev.NewFaultPlan(1)
			plan.ReadErrBlocks = map[uint32]bool{0: true}
			dev.SetFaults(plan)
			return dev
		}, "superblock", "unreadable"},
		{"unreadable block bitmap", func(t *testing.T) *blockdev.Mem {
			dev, sb := bigImage(t, 31)
			plan := blockdev.NewFaultPlan(1)
			plan.ReadErrBlocks = map[uint32]bool{sb.BlockBitmapStart + 1: true}
			dev.SetFaults(plan)
			return dev
		}, "bitmap block ", "unreadable"},
	}
	for _, img := range images {
		t.Run(img.name, func(t *testing.T) {
			dev := img.build(t)
			rep := Check(dev)
			want := img.where != "" || img.what != ""
			found := !want && rep.CorruptCount() == 0
			for _, p := range rep.Problems {
				if want && p.Severity == Corrupt && strings.HasPrefix(p.Where, img.where) &&
					strings.Contains(p.What, img.what) {
					found = true
				}
			}
			if !found {
				t.Errorf("want Corrupt finding %q: %q (none means clean); got:", img.where, img.what)
				for _, p := range rep.Problems {
					t.Logf("  %s", p)
				}
			}
			requireSameReport(t, rep, Check(dev), "second check")
			if b, err := dev.ReadBlock(0); err == nil {
				if sb, err := disklayout.DecodeSuperblock(b); err == nil {
					requireSameReport(t, rep, CheckScoped(dev, tableScope(sb)), "full-coverage scope")
				}
			}
		})
	}
}

// TestCheckScopedFullCoverageDelegates: a scope spanning the whole inode
// table buys nothing over the full check, so CheckScoped runs it — strictly
// stronger, same cost.
func TestCheckScopedFullCoverageDelegates(t *testing.T) {
	dev, sb := populatedImage(t, 21)
	rep := CheckScoped(dev, tableScope(sb))
	if rep.Scoped {
		t.Error("full-coverage scope still reported Scoped")
	}
	requireSameReport(t, Check(dev), rep, "full-coverage scope")
}

// readCounter counts device reads per block.
type readCounter struct {
	blockdev.Device
	reads map[uint32]int
}

func (d *readCounter) ReadBlock(blk uint32) ([]byte, error) {
	d.reads[blk]++
	return d.Device.ReadBlock(blk)
}

// TestCheckReadsEachBlockOnce pins the engine's block cache: however many
// inodes share a table block and however many dirents name an inode, a
// check reads each block from the device at most once. This is where the
// engine's gain over a per-inode read comes from.
func TestCheckReadsEachBlockOnce(t *testing.T) {
	dev, sb := bigImage(t, 7)
	dirBlk := firstDirBlock(t, dev, sb, sb.RootIno)
	partial := NewScope()
	for _, blk := range []uint32{0, sb.InodeTableStart, sb.InodeTableStart + 3, dirBlk} {
		partial.Add(blk)
	}
	checks := []struct {
		name string
		run  func(d blockdev.Device) *Report
	}{
		{"Check", Check},
		{"CheckScoped partial", func(d blockdev.Device) *Report { return CheckScoped(d, partial) }},
		{"CheckScoped full", func(d blockdev.Device) *Report { return CheckScoped(d, tableScope(sb)) }},
	}
	for _, c := range checks {
		rc := &readCounter{Device: dev, reads: map[uint32]int{}}
		if rep := c.run(rc); !rep.Clean() {
			t.Fatalf("%s: bigImage not clean: %v", c.name, rep.Problems)
		}
		if len(rc.reads) == 0 {
			t.Fatalf("%s read nothing", c.name)
		}
		for blk, n := range rc.reads {
			if n > 1 {
				t.Errorf("%s read block %d %d times, want at most once", c.name, blk, n)
			}
		}
	}
}

// TestCheckScopedFindsInScopeOnly pins the scoped check's semantics: damage
// inside the scope is found, damage outside is (by design) not — that is
// exactly the contract the supervisor's verified-baseline bookkeeping
// depends on, and the scrubber exists to cover the difference.
func TestCheckScopedFindsInScopeOnly(t *testing.T) {
	dev, sb := populatedImage(t, 22)
	// Ghost inodes in two different table blocks.
	bm, err := dev.ReadBlock(sb.InodeBitmapStart)
	if err != nil {
		t.Fatal(err)
	}
	var ghosts []uint32
	ghostBlocks := map[uint32]bool{}
	for ino := uint32(2); ino < sb.NumInodes && len(ghosts) < 2; ino++ {
		blk, _ := sb.InodeLoc(ino)
		if !disklayout.TestBit(bm, ino) && !ghostBlocks[blk] {
			ghostBlocks[blk] = true
			ghosts = append(ghosts, ino)
		}
	}
	if len(ghosts) < 2 {
		t.Fatal("could not place ghosts in two table blocks")
	}
	for _, g := range ghosts {
		rewriteInode(t, dev, sb, g, func(ino *disklayout.Inode) {
			ino.Mode = disklayout.MkMode(disklayout.TypeFile, 0o644)
			ino.Nlink = 1
		})
	}
	inBlk, _ := sb.InodeLoc(ghosts[0])
	sc := NewScope()
	sc.Add(0)
	sc.Add(inBlk)
	rep := CheckScoped(dev, sc)
	if !rep.Scoped || rep.ScopeBlocks != 2 {
		t.Errorf("Scoped=%v ScopeBlocks=%d, want true/2", rep.Scoped, rep.ScopeBlocks)
	}
	foundIn, foundOut := false, false
	for _, p := range rep.Problems {
		if !strings.Contains(p.What, "ghost") {
			continue
		}
		switch p.Where {
		case fmt.Sprintf("inode %d", ghosts[0]):
			foundIn = true
		case fmt.Sprintf("inode %d", ghosts[1]):
			foundOut = true
		}
	}
	if !foundIn {
		t.Error("in-scope ghost not reported")
	}
	if foundOut {
		t.Error("out-of-scope ghost reported by a scoped check")
	}
	// The full check sees both.
	n := 0
	for _, p := range Check(dev).Problems {
		if strings.Contains(p.What, "ghost") {
			n++
		}
	}
	if n != 2 {
		t.Errorf("full check found %d ghosts, want 2", n)
	}
}

// bigImage formats a device large enough to need two block-bitmap blocks and
// populates it through the base filesystem.
func bigImage(t *testing.T, seed int64) (*blockdev.Mem, *disklayout.Superblock) {
	t.Helper()
	dev := blockdev.NewMem(disklayout.BitsPerBlock + 4096)
	sb, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if sb.BlockBitmapLen < 2 {
		t.Fatalf("BlockBitmapLen = %d, want >= 2", sb.BlockBitmapLen)
	}
	fs, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Generate(workload.Config{
		Profile: workload.Soup, Seed: seed, NumOps: 200, Superblock: sb,
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

// TestBitmapReadFaultDegradesPerBlock is the regression test for the
// partial-read bug: a read error on bitmap block k used to poison the whole
// bitmap load. Now it must degrade to a per-block finding, keep every bit
// that did read, and skip (not invent) findings in the unknown range.
func TestBitmapReadFaultDegradesPerBlock(t *testing.T) {
	dev, sb := bigImage(t, 31)

	// Plant a bitmap lie in the low (readable) bitmap block: an owned block
	// cleared in the bitmap.
	planted := false
	forEachInode(t, dev, sb, func(ino uint32, rec *disklayout.Inode) bool {
		if p := firstDataBlock(rec); rec.IsFile() && p != 0 && p < disklayout.BitsPerBlock {
			clearBlockBit(t, dev, sb, p)
			planted = true
			return false
		}
		return true
	})
	if !planted {
		t.Fatal("no file block below BitsPerBlock to plant the lie on")
	}

	// Fail the second block-bitmap block.
	bad := sb.BlockBitmapStart + 1
	plan := blockdev.NewFaultPlan(1)
	plan.ReadErrBlocks = map[uint32]bool{bad: true}
	dev.SetFaults(plan)

	rep := Check(dev)
	if rep.Unreadable {
		t.Fatal("bitmap fault marked the whole device unreadable")
	}
	var unreadableFinding, lieFinding bool
	for _, p := range rep.Problems {
		if p.Where == fmt.Sprintf("bitmap block %d", bad) && strings.Contains(p.What, "unreadable") {
			unreadableFinding = true
		}
		if strings.Contains(p.What, "free in bitmap") {
			lieFinding = true
		}
		// The unknown range reads as all-zero; no bitmap-consistency finding
		// (lie or leak) may be invented for blocks covered by the bad block.
		if strings.Contains(p.What, "free in bitmap") || strings.Contains(p.What, "leak") {
			var blk uint32
			if _, err := fmt.Sscanf(p.Where, "block %d", &blk); err == nil && blk >= disklayout.BitsPerBlock {
				t.Errorf("finding in unknown bitmap range: %s", p)
			}
		}
	}
	if !unreadableFinding {
		t.Error("unreadable bitmap block not reported as a per-block finding")
	}
	if !lieFinding {
		t.Error("bitmap lie in the readable range was masked by the degraded block")
	}
}

// TestExitCodeContract pins the cmd/fsck exit-code mapping: 0 clean,
// 1 warnings only, 2 corrupt, 3 unreadable.
func TestExitCodeContract(t *testing.T) {
	// Clean.
	dev, _ := freshImage(t)
	if rep := Check(dev); rep.ExitCode() != 0 {
		t.Errorf("clean image: exit %d, want 0 (%v)", rep.ExitCode(), rep.Problems)
	}

	// Warnings only: an orphan (allocated, valid record, nlink 0, unreachable).
	dev, sb := populatedImage(t, 41)
	orphan := findFreeInode(t, dev, sb)
	setInodeBit(t, dev, sb, orphan)
	rewriteInode(t, dev, sb, orphan, func(ino *disklayout.Inode) {
		ino.Mode = disklayout.MkMode(disklayout.TypeFile, 0o644)
		ino.Nlink = 0
	})
	rep := Check(dev)
	if rep.ExitCode() != 1 || rep.Warnings() == 0 || rep.CorruptCount() != 0 {
		t.Errorf("orphan image: exit %d (%d warnings, %d corrupt), want 1",
			rep.ExitCode(), rep.Warnings(), rep.CorruptCount())
	}

	// Corrupt.
	dev, sb = populatedImage(t, 42)
	ghost := findFreeInode(t, dev, sb)
	rewriteInode(t, dev, sb, ghost, func(ino *disklayout.Inode) {
		ino.Mode = disklayout.MkMode(disklayout.TypeFile, 0o644)
		ino.Nlink = 1
	})
	if rep := Check(dev); rep.ExitCode() != 2 {
		t.Errorf("ghost image: exit %d, want 2", rep.ExitCode())
	}

	// Unreadable: the superblock itself cannot be read.
	dev, _ = populatedImage(t, 43)
	plan := blockdev.NewFaultPlan(1)
	plan.ReadErrBlocks = map[uint32]bool{0: true}
	dev.SetFaults(plan)
	rep = Check(dev)
	if rep.ExitCode() != 3 || !rep.Unreadable {
		t.Errorf("unreadable image: exit %d (Unreadable=%v), want 3/true", rep.ExitCode(), rep.Unreadable)
	}

	// Repair grades severity on the same thresholds: repairing the orphan
	// image brings its exit code to 0.
	dev, sb = populatedImage(t, 44)
	orphan = findFreeInode(t, dev, sb)
	setInodeBit(t, dev, sb, orphan)
	rewriteInode(t, dev, sb, orphan, func(ino *disklayout.Inode) {
		ino.Mode = disklayout.MkMode(disklayout.TypeFile, 0o644)
		ino.Nlink = 0
	})
	post, st, err := Repair(dev)
	if err != nil {
		t.Fatal(err)
	}
	if st.OrphansFreed == 0 {
		t.Error("repair freed no orphans")
	}
	if post.ExitCode() != 0 {
		t.Errorf("post-repair exit %d, want 0: %v", post.ExitCode(), post.Problems)
	}
}
