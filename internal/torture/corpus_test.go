package torture

// The regression corpus: every bug the campaign (or its ancestors) has
// surfaced, replayed through the campaign's own checkers. Each case failed
// on the tree that carried the bug; on a healthy tree each must come back
// clean. Reintroducing any of these bugs turns the corresponding case red
// without waiting for a full campaign run.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/fsck"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
	"repro/internal/workload"
)

// geometry returns the campaign's device geometry.
func geometry() (*disklayout.Superblock, error) {
	return disklayout.Geometry(devBlocks, devInodes, devJournal)
}

// profileByName resolves a workload profile for corpus entries pinned to the
// profile that originally surfaced a bug.
func profileByName(t *testing.T, name string) workload.Profile {
	t.Helper()
	for _, p := range workload.Profiles() {
		if p.String() == name {
			return p
		}
	}
	t.Fatalf("no workload profile %q", name)
	return 0
}

// reexecuteCorpus replays one corpus failure identity through the campaign
// executor and fails the test if the signature reproduces.
func reexecuteCorpus(t *testing.T, f *Failure) {
	t.Helper()
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	prelude, window := buildWorkload(f.Profile, f.Seed, f.WinLen, sb)
	got, err := reexecute(f, prelude, window, sb)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("corpus bug reproduced: %s", got)
	}
}

// TestCorpusTornSuperblock replays the campaign's first find: a torn write
// of block 0 (the primary superblock is rewritten in place at mount,
// unmount, and journal checkpoints) left the image unrecoverable — the
// geometry needed to even locate the journal lived in the block that was
// lost, so mkfs.Recover failed before replay could run. Every workload unit
// reproduced it at its unmount write. Fixed by the backup superblock in the
// image's last block (written before the primary, used as the recovery
// fallback, self-healed after replay).
func TestCorpusTornSuperblock(t *testing.T) {
	reexecuteCorpus(t, &Failure{
		Class:   ClassTorn,
		Profile: profileByName(t, "metaheavy"),
		Seed:    -743802814740804364,
		WinLen:  1,
		Kind:    "recover-error",
		Locus:   "replay",
	})
}

// TestCorpusDeferredSyncFaultLeak replays the campaign's second find: after
// a recovery triggered by a faulting fsync, the §3.3 deferred re-run applied
// the sync outside the detection envelope — withInjectionDisabled gates only
// the faultinject registry, not device-level faults — so a probabilistic
// write error during the re-run surfaced to the application as a bare EIO
// with Degradations == 0. Fixed by bounded re-attempts plus an explicit
// degradation when the device persistently refuses the sync.
func TestCorpusDeferredSyncFaultLeak(t *testing.T) {
	reexecuteCorpus(t, &Failure{
		Class:   ClassWriteErr,
		Profile: profileByName(t, "metaheavy"),
		Seed:    -743802814740804364,
		WinLen:  3,
		Point:   1,
		Kind:    "unmasked-fault",
		Locus:   "errno",
	})
}

// TestCorpusHardlinkAliasDurability pins the campaign checker's own fixed
// bug: the durability strict set excluded window-touched files by path only,
// so a window writing through one hardlink tripped false durability-loss
// findings on the other name of the same inode. The fix (strictFiles)
// excludes by inode identity; this unit — whose prelude hardlinks the file
// the window then writes through the alias — must enumerate clean.
func TestCorpusHardlinkAliasDurability(t *testing.T) {
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	prof := profileByName(t, "soup")
	seed := int64(-2197714035487822175)
	prelude, window := buildWorkload(prof, seed, 2, sb)
	pl := newPlan(prelude, window, sb)
	// Precondition: the unit still contains the hardlink aliasing that
	// triggered the false positive (a KLink in the prelude).
	hasLink := false
	for _, o := range pl.prelude {
		if o.Kind == oplog.KLink {
			hasLink = true
		}
	}
	if !hasLink {
		t.Skip("workload generator no longer emits a hardlink for this seed")
	}
	res, err := runCrashEnum(caseID{prof, seed, 2}, pl, sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.failures {
		t.Errorf("hardlink unit failed enumeration: %s", f)
	}
}

// TestCorpusStaleContentDetection replays the failure mode of PR 2's
// pinned-buffer resurrection (a dropped-while-pinned cache buffer re-entered
// the LRU and could serve or write back stale bytes) through the campaign's
// durability checker: silently stale file content in a recovered image must
// be caught as durability-corrupt by the content-hash check, since neither
// journal replay nor fsck can see it.
func TestCorpusStaleContentDetection(t *testing.T) {
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.NewMem(devBlocks)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: devInodes, JournalBlocks: devJournal}); err != nil {
		t.Fatal(err)
	}
	fs, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := model.New(sb)
	payload := bytes.Repeat([]byte{0xAB}, 2*disklayout.BlockSize)
	ops := []*oplog.Op{
		{Kind: oplog.KCreate, Path: "/victim", Perm: 0o644},
		{Kind: oplog.KWrite, FD: 0, Off: 0, Data: payload},
		{Kind: oplog.KClose, FD: 0},
	}
	for _, o := range ops {
		if err := safeOpApply(fs, mustClone(o)); err != nil {
			t.Fatal(err)
		}
		_ = oplog.Apply(m, mustClone(o))
	}
	if err := syncBoth(fs, m); err != nil {
		t.Fatal(err)
	}
	state, err := difftest.DumpState(m)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []durBoundary{{at: 0, label: "prelude-sync",
		files: strictFiles(state, func(string) bool { return false })}}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	// The clean image passes.
	if kind, _, detail := checkImage(dev.Snapshot(), bounds, 0); kind != "" {
		t.Fatalf("clean image failed: %s: %s", kind, detail)
	}

	// Resurrect stale bytes into one of the file's data blocks, as the PR 2
	// cache bug could: the image stays structurally valid (journal empty,
	// fsck clean) but the content is silently wrong.
	stale := dev.Snapshot()
	found := false
	for blk := sb.DataStart; blk < sb.BackupBlk(); blk++ {
		b, err := stale.ReadBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] == 0xAB && b[disklayout.BlockSize-1] == 0xAB {
			staleData := bytes.Repeat([]byte{0xCD}, disklayout.BlockSize)
			if err := stale.WriteBlock(blk, staleData); err != nil {
				t.Fatal(err)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("could not locate the victim's data block")
	}
	kind, _, _ := checkImage(stale, bounds, 0)
	if kind != "durability-corrupt" {
		t.Errorf("stale content detected as %q, want durability-corrupt", kind)
	}
}

// TestCorpusBitmapReadFaultContained replays PR 5's loadBitmaps
// partial-read poisoning through the campaign's fsck stage: an unreadable
// block-bitmap block must degrade to a contained per-block finding, not
// poison the whole bitmap into zeros and cascade "in use but free in
// bitmap" corruption across every allocated block.
func TestCorpusBitmapReadFaultContained(t *testing.T) {
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.NewMem(devBlocks)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: devInodes, JournalBlocks: devJournal}); err != nil {
		t.Fatal(err)
	}
	fs, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := model.New(sb)
	ops := []*oplog.Op{
		{Kind: oplog.KCreate, Path: "/a", Perm: 0o644},
		{Kind: oplog.KWrite, FD: 0, Off: 0, Data: bytes.Repeat([]byte{1}, disklayout.BlockSize)},
		{Kind: oplog.KClose, FD: 0},
	}
	for _, o := range ops {
		if err := safeOpApply(fs, mustClone(o)); err != nil {
			t.Fatal(err)
		}
		_ = oplog.Apply(m, mustClone(o))
	}
	if err := syncBoth(fs, m); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	plan := blockdev.NewFaultPlan(1)
	plan.ReadErrBlocks = map[uint32]bool{sb.BlockBitmapStart: true}
	dev.SetFaults(plan)
	rep := fsck.Check(dev)
	dev.SetFaults(nil)

	sawBitmapFinding := false
	for _, p := range rep.Problems {
		if strings.Contains(p.What, "unreadable") && strings.Contains(p.Where, "bitmap") {
			sawBitmapFinding = true
		}
		if strings.Contains(p.What, "free in bitmap") {
			t.Errorf("poisoning cascade finding: %s", p)
		}
	}
	if !sawBitmapFinding {
		t.Error("unreadable bitmap block produced no contained finding")
		for _, p := range rep.Problems {
			t.Logf("finding: %s", p)
		}
	}
}
