package basefs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/mkfs"
)

// TestInodeEvictionVersusDirtyRace pins the inode cache's dirty flag to the
// cache lock: a Stat that misses a full inode cache evicts under that lock and
// reads every visited inode's flag, while a WriteAt on an open file sets its
// own inode's flag under only the inode and shared namespace locks. Run with
// -race; the unguarded write showed up as a data race here.
func TestInodeEvictionVersusDirtyRace(t *testing.T) {
	const files = 1300 // more than the inode cache holds
	dev := blockdev.NewMem(16384)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 4096}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		fd, err := fs.Create(fmt.Sprintf("/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	// Remount so every Stat below starts from an empty inode cache.
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if fs, err = Mount(dev, Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Kill)
	fd, err := fs.Open("/f0")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		payload := []byte("dirtying write")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fs.WriteAt(fd, int64(i%64)*16, payload); err != nil {
				t.Errorf("WriteAt: %v", err)
				return
			}
		}
	}()
	for pass := 0; pass < 8; pass++ {
		for i := 1; i < files; i++ {
			if _, err := fs.Stat(fmt.Sprintf("/f%d", i)); err != nil {
				t.Fatalf("Stat /f%d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if n := fs.ic.Len(); n > inodeCacheSize+1 {
		t.Errorf("inode cache holds %d inodes, bound %d", n, inodeCacheSize)
	}
}

// TestSyncCostIndependentOfTouchedFiles pins a sync round's cost to what it
// writes: after N extent files have been written, synced and read, a one-block
// overwrite plus fsync of one file allocates the same at N = 16 and N = 512.
// A round that visits every file touched since mount pays at least one
// allocation per such file.
func TestSyncCostIndependentOfTouchedFiles(t *testing.T) {
	allocs := func(n int) float64 {
		fs, _ := mountFsyncImage(t)
		block := bytes.Repeat([]byte{0x5A}, disklayout.BlockSize)
		for i := 0; i < n; i++ {
			fd, err := fs.Create(fmt.Sprintf("/f%d", i), 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.WriteAt(fd, 0, block); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			fd, err := fs.Open(fmt.Sprintf("/f%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.ReadAt(fd, 0, disklayout.BlockSize); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
		// An empty journal, so both sizes checkpoint at the same round below.
		if err := fs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		fd, err := fs.Open("/f0")
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := fs.WriteAt(fd, 0, block); err != nil {
				t.Fatal(err)
			}
			if err := fs.Fsync(fd); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(512)
	if large-small > 2 {
		t.Errorf("overwrite+fsync allocates %.1f times with 512 files touched, %.1f with 16; want within 2",
			large, small)
	}
}

// pendingState reports how many files the next round would visit and, for
// ino, whether it is queued and how many blocks it has buffered and frozen.
func (fs *FS) pendingState(ino uint32) (files int, queued bool, bufs, flushing int) {
	fs.delMu.Lock()
	defer fs.delMu.Unlock()
	st := fs.pending[ino]
	if st == nil {
		return len(fs.pending), false, 0, 0
	}
	return len(fs.pending), st.queued, len(st.bufs), len(st.flushing)
}

// TestFailedRoundKeepsDelallocPending holds the pending set's one subtle
// rule: a round whose delalloc run fails in Phase B leaves the file queued
// with its frozen generation, so the next round merges it back and writes it.
// A pending file that is truncated and unlinked instead leaves no entry.
func TestFailedRoundKeepsDelallocPending(t *testing.T) {
	first := bytes.Repeat([]byte{0xA1}, disklayout.BlockSize)
	second := bytes.Repeat([]byte{0xB2}, disklayout.BlockSize)
	// failRound writes first to block 0 of a new synced file and fsyncs it
	// through a device that fails every write, leaving one frozen block.
	failRound := func(t *testing.T) (*FS, *blockdev.Mem, fsapi.FD, uint32) {
		fs, dev := newFS(t)
		fd, err := fs.Create("/f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		st, err := fs.Fstat(fd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(fd, 0, first); err != nil {
			t.Fatal(err)
		}
		dev.SetFaults(&blockdev.FaultPlan{WriteErrProb: 1})
		if err := fs.Fsync(fd); err == nil {
			t.Fatal("fsync succeeded with every device write failing")
		}
		dev.SetFaults(nil)
		if files, queued, bufs, flushing := fs.pendingState(st.Ino); files != 1 || !queued || bufs != 0 || flushing != 1 {
			t.Fatalf("after the failed round: %d pending files, queued %v, %d buffered, %d frozen; want 1, true, 0, 1",
				files, queued, bufs, flushing)
		}
		return fs, dev, fd, st.Ino
	}

	t.Run("retry writes the leftovers", func(t *testing.T) {
		fs, dev, fd, ino := failRound(t)
		if _, err := fs.WriteAt(fd, disklayout.BlockSize, second); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatalf("sync after clearing the fault: %v", err)
		}
		if files, _, _, _ := fs.pendingState(ino); files != 0 {
			t.Fatalf("%d files still pending after a successful round", files)
		}
		if err := fs.Close(fd); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		if rep := fsck.Check(dev); !rep.Clean() {
			t.Fatalf("fsck after the retried round: %v", rep.Problems)
		}
		fs2, err := Mount(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer fs2.Kill()
		fd2, err := fs2.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs2.ReadAt(fd2, 0, 2*disklayout.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(append([]byte{}, first...), second...)) {
			t.Fatal("remounted file does not hold both writes")
		}
	})

	t.Run("truncate and unlink clear the entry", func(t *testing.T) {
		fs, dev, fd, ino := failRound(t)
		// Block 0 is now frozen and mapped; rewriting it buffers a
		// copy-on-write, and block 1 is a new buffer. Each carries one
		// charge, released once by the truncate.
		if _, err := fs.WriteAt(fd, 0, second[:100]); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(fd, disklayout.BlockSize, second); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(fd); err != nil {
			t.Fatal(err)
		}
		if err := fs.Truncate("/f", 0); err != nil {
			t.Fatal(err)
		}
		if used, _, phys := fs.debugCounts(); used != phys {
			t.Errorf("after truncating to 0: %d blocks charged, %d in use", used, phys)
		}
		if err := fs.Unlink("/f"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if files, _, _, _ := fs.pendingState(ino); files != 0 {
			t.Fatalf("%d files pending after the next round", files)
		}
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		if rep := fsck.Check(dev); !rep.Clean() {
			t.Fatalf("fsck: %v", rep.Problems)
		}
	})
}
