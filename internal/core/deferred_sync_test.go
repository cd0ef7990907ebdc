package core

// Regression tests for the deferred-sync detection envelope, added after the
// torture campaign's write-error class caught the §3.3 re-run path leaking a
// device fault to the application as a bare errno with Degradations == 0:
// withInjectionDisabled gates only the bug registry, so a device-level write
// error during the post-hand-off fsync escaped the supervisor entirely.

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fserr"
	"repro/internal/mkfs"
)

// journalWriteFailer wraps a Mem device and, while armed, fails every write
// to the journal's payload blocks (everything in the journal region past the
// JSB). Sync is the only path that writes those blocks, so arming it faults
// exactly the deferred sync re-run without disturbing recovery's reboot or
// the superblock updates. failures bounds how many writes fail before the
// device heals; a huge count means fail for the whole test.
type journalWriteFailer struct {
	*blockdev.Mem
	sb       *disklayout.Superblock
	armed    atomic.Bool
	failures atomic.Int64
}

func (d *journalWriteFailer) WriteBlock(blk uint32, data []byte) error {
	if d.armed.Load() && blk > d.sb.JournalStart && blk < d.sb.JournalStart+d.sb.JournalLen {
		if n := d.failures.Add(-1); n >= 0 {
			return fserr.ErrIO
		}
	}
	return d.Mem.WriteBlock(blk, data)
}

// WriteVec sends runs through WriteBlock, so a run the fence forwards meets
// the same journal-region filter as a single block.
func (d *journalWriteFailer) WriteVec(runs []blockdev.Run) error {
	return blockdev.WriteVecPerBlock(d, runs)
}

// newDeferredSyncHarness mounts a supervised FS on a journalWriteFailer with
// a one-shot crash specimen armed on the sync seam, and some un-synced state
// so the deferred re-run has a transaction to commit.
func newDeferredSyncHarness(t *testing.T) (*FS, *journalWriteFailer) {
	t.Helper()
	mem := blockdev.NewMem(4096)
	sb, err := mkfs.Format(mem, mkfs.Options{NumInodes: 256, JournalBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	dev := &journalWriteFailer{Mem: mem, sb: sb}
	reg := faultinject.NewRegistry(1)
	reg.Arm(&faultinject.Specimen{
		ID: "sync-boom", Class: faultinject.Crash, Deterministic: true,
		Prob: 1.0, Op: "sync", MaxFires: 1,
	})
	fs, err := Mount(dev, Config{Base: basefs.Options{Injector: reg}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Kill)
	for _, p := range []string{"/a", "/b", "/c"} {
		if err := fs.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return fs, dev
}

// TestDeferredSyncRetriesMaskTransientFault: a transient device fault during
// the deferred re-run is absorbed by the bounded retry — the application
// sees a clean sync, no degradation, and the retry is counted.
func TestDeferredSyncRetriesMaskTransientFault(t *testing.T) {
	fs, dev := newDeferredSyncHarness(t)
	dev.failures.Store(1) // first payload write fails, then the device heals
	dev.armed.Store(true)
	err := fs.Sync() // specimen fires at the seam; re-run hits the device fault
	dev.armed.Store(false)
	if err != nil {
		t.Fatalf("Sync() = %v, want nil (transient fault must be retried away)", err)
	}
	st := fs.Stats()
	if st.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", st.Recoveries)
	}
	if st.SyncRetries == 0 {
		t.Error("transient fault was never retried (SyncRetries = 0)")
	}
	if st.Degradations != 0 {
		t.Errorf("degradations = %d, want 0", st.Degradations)
	}
	if st.AppFailures != 0 {
		t.Errorf("app failures = %d, want 0", st.AppFailures)
	}
	if _, err := fs.Stat("/a"); err != nil {
		t.Errorf("Stat(/a) after recovered sync: %v", err)
	}
}

// TestDeferredSyncPersistentFaultDegrades: when the device keeps refusing
// the re-run past the retry budget, the errno may surface — but only inside
// the detection envelope: the supervisor must record a degradation, never
// hand the application a fault while claiming full supervision. This is the
// exact leak the torture campaign caught.
func TestDeferredSyncPersistentFaultDegrades(t *testing.T) {
	fs, dev := newDeferredSyncHarness(t)
	dev.failures.Store(1 << 40) // fail for the whole test
	dev.armed.Store(true)
	err := fs.Sync()
	dev.armed.Store(false)
	dev.failures.Store(0)
	if err == nil {
		t.Fatal("Sync() = nil with a persistently faulting journal")
	}
	if !errors.Is(err, fserr.ErrIO) {
		t.Errorf("Sync() = %v, want ErrIO", err)
	}
	st := fs.Stats()
	if st.Degradations == 0 {
		t.Error("fault surfaced to the application with Degradations = 0 (the PR 7 leak)")
	}
	if st.SyncRetries != deferredSyncRetries {
		t.Errorf("sync retries = %d, want %d", st.SyncRetries, deferredSyncRetries)
	}
	// The supervisor must stay alive: once the device heals, syncs work.
	if err := fs.Sync(); err != nil {
		t.Errorf("Sync() after device healed: %v", err)
	}
}
