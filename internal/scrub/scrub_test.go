package scrub

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsck"
	"repro/internal/journal"
	"repro/internal/mkfs"
	"repro/internal/oplog"
	"repro/internal/workload"
)

// populatedDev builds a cleanly unmounted image.
func populatedDev(t *testing.T, seed int64) (*blockdev.Mem, *disklayout.Superblock) {
	t.Helper()
	dev := blockdev.NewMem(4096)
	sb, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
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

func TestScrubCleanPass(t *testing.T) {
	dev, _ := populatedDev(t, 1)
	var gotGen atomic.Uint64
	var gotClean atomic.Bool
	s := New(Config{
		Freeze: func() (blockdev.Device, uint64, error) {
			return dev.SnapshotDevice(), 42, nil
		},
		OnReport: func(rep *fsck.Report, gen uint64) {
			gotGen.Store(gen)
			gotClean.Store(rep.Clean())
		},
	})
	rep := s.RunOnce()
	if rep == nil || !rep.Clean() {
		t.Fatalf("pass not clean: %+v", rep)
	}
	if s.Passes() != 1 || s.CleanPasses() != 1 || s.CorruptPasses() != 0 {
		t.Errorf("counters: passes=%d clean=%d corrupt=%d", s.Passes(), s.CleanPasses(), s.CorruptPasses())
	}
	if gotGen.Load() != 42 || !gotClean.Load() {
		t.Errorf("OnReport saw gen=%d clean=%v, want 42/true", gotGen.Load(), gotClean.Load())
	}
}

func TestScrubDetectsCorruption(t *testing.T) {
	dev, sb := populatedDev(t, 2)
	// Flip the inode bitmap's first byte: the root inode's allocation bit
	// inverts, making the root a ghost — unambiguous structural corruption.
	if err := dev.CorruptBlock(sb.InodeBitmapStart, 0, 0xFF); err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Freeze: func() (blockdev.Device, uint64, error) {
			return dev.SnapshotDevice(), 1, nil
		},
	})
	rep := s.RunOnce()
	if rep == nil || rep.Clean() {
		t.Fatal("corrupted table block not detected")
	}
	if s.CorruptPasses() != 1 || s.CleanPasses() != 0 {
		t.Errorf("counters: clean=%d corrupt=%d", s.CleanPasses(), s.CorruptPasses())
	}
}

func TestScrubFreezeErrorSkipsPass(t *testing.T) {
	called := false
	s := New(Config{
		Freeze: func() (blockdev.Device, uint64, error) {
			return nil, 0, errors.New("snapshot unavailable")
		},
		OnReport: func(rep *fsck.Report, gen uint64) { called = true },
	})
	if rep := s.RunOnce(); rep != nil {
		t.Fatalf("report from failed freeze: %+v", rep)
	}
	if s.FreezeErrors() != 1 || s.Passes() != 0 {
		t.Errorf("counters: freezeErrs=%d passes=%d", s.FreezeErrors(), s.Passes())
	}
	if called {
		t.Error("OnReport called for a skipped pass")
	}
}

// TestScrubChecksCommittedOverlayView is the frozen-view regression test: a
// snapshot taken while the journal holds committed-but-not-checkpointed
// transactions must be checked through the committed-transaction overlay (the
// logical post-replay image), never raw. The overlay must actually engage —
// an empty overlay would mean the scenario regressed to triviality.
func TestScrubChecksCommittedOverlayView(t *testing.T) {
	dev := blockdev.NewMem(4096)
	sb, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A metadata burst plus a sync: commits transactions to the journal; the
	// lazy checkpoint policy leaves home locations stale.
	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: 3, NumOps: 60, Superblock: sb,
	})
	for _, op := range trace {
		o := op.Clone()
		o.Errno, o.RetFD, o.RetIno, o.RetN = 0, 0, 0, 0
		_ = oplog.Apply(fs, o)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Snapshot mid-life: journal non-empty, image stale. (Unmount would
	// checkpoint and destroy the scenario.)
	snap := dev.SnapshotDevice()
	over, st, err := journal.CommittedOverlay(snap, sb)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed == 0 || len(over) == 0 {
		t.Fatalf("scenario broke: %d committed txs, %d overlay blocks — nothing lazy left in the journal", st.Committed, len(over))
	}
	s := New(Config{
		Freeze: func() (blockdev.Device, uint64, error) {
			return blockdev.NewOverlay(snap, over), 7, nil
		},
	})
	rep := s.RunOnce()
	if rep == nil || !rep.Clean() {
		if rep != nil {
			for _, p := range rep.Problems {
				t.Logf("  %s", p)
			}
		}
		t.Fatal("post-replay composed view did not check clean")
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}
