package basefs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/mkfs"
)

// mountFsyncImage formats a 64 MiB image with a 256-block journal and mounts
// it bare: no latency plan, no telemetry.
func mountFsyncImage(t *testing.T) (*FS, *blockdev.Mem) {
	t.Helper()
	dev := blockdev.NewMem(16384)
	if _, err := mkfs.Format(dev, mkfs.Options{JournalBlocks: 256}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Kill)
	return fs, dev
}

// createWriteFsync is one durability round trip: create, write, fsync, close.
func createWriteFsync(fs *FS, name string) error {
	fd, err := fs.Create(name, 0o644)
	if err != nil {
		return err
	}
	if _, err := fs.WriteAt(fd, 0, []byte("fsync-heavy payload")); err != nil {
		return err
	}
	if err := fs.Fsync(fd); err != nil {
		return err
	}
	return fs.Close(fd)
}

// TestFsyncFlushBudget pins the durability path's device-flush cost.
// One fsync must average well under the old 6 device flushes: the
// single-flush-pair commit plus deferred checkpointing budgets 2 for the
// common case plus amortized checkpoint flushes. Concurrent fsyncs must
// coalesce onto sync rounds, whose one commit carries every waiter's
// metadata, so they need fewer than one commit pair each. A 1 ms device
// write latency keeps each round in flight long enough for followers to
// pile up, and every fsynced file must survive a crash snapshot.
func TestFsyncFlushBudget(t *testing.T) {
	fs, dev := mountFsyncImage(t)
	const syncs = 100
	before := dev.Stats().Flushes.Load()
	for i := 0; i < syncs; i++ {
		if err := createWriteFsync(fs, fmt.Sprintf("/seq%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	perSync := float64(dev.Stats().Flushes.Load()-before) / syncs
	if perSync >= 3.0 {
		t.Errorf("flushes/sync = %.2f, want < 3.0 (the per-block commit path cost 6)", perSync)
	}

	fs2, dev2 := mountFsyncImage(t)
	const workers, perWorker = 4, 10
	plan := blockdev.NewFaultPlan(1)
	plan.WriteLatency = time.Millisecond
	dev2.SetFaults(plan)
	before = dev2.Stats().Flushes.Load()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker && errs[w] == nil; i++ {
				errs[w] = createWriteFsync(fs2, fmt.Sprintf("/w%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	dev2.SetFaults(nil)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if flushes := dev2.Stats().Flushes.Load() - before; flushes >= 2*workers*perWorker {
		t.Errorf("no coalescing: %d flushes for %d concurrent fsyncs", flushes, workers*perWorker)
	}
	crashed, err := Mount(dev2.Snapshot(), Options{})
	if err != nil {
		t.Fatalf("mount after crash: %v", err)
	}
	defer crashed.Kill()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("/w%d-%d", w, i)
			fd, err := crashed.Open(name)
			if err != nil {
				t.Fatalf("fsynced %s lost after crash: %v", name, err)
			}
			if got, _ := crashed.ReadAt(fd, 0, 64); string(got) != "fsync-heavy payload" {
				t.Errorf("%s after crash = %q", name, got)
			}
			crashed.Close(fd)
		}
	}
}

// TestExtentVectoringCutsDeviceCalls pins the extent layout's device-call
// budget: delayed allocation, coalesced write-back and the vectored read path
// move a 4 MiB sequential file (1024 blocks) in at most a tenth as many
// device write calls as blocks, and read it back cold in at most a tenth as
// many read calls.
func TestExtentVectoringCutsDeviceCalls(t *testing.T) {
	const budget = 1024 / 10
	w, r := SequentialFileCalls(t, MountBare)
	if w > budget {
		t.Errorf("write calls: %d for 1024 blocks, want <= %d", w, budget)
	}
	if r > budget {
		t.Errorf("cold read calls: %d for 1024 blocks, want <= %d", r, budget)
	}
}

// MountBare mounts dev as a bare base filesystem, for SequentialFileCalls.
func MountBare(dev blockdev.Device) (fsapi.FS, func() error, error) {
	fs, err := Mount(dev, Options{})
	if err != nil {
		return nil, nil, err
	}
	return fs, fs.Unmount, nil
}

// SequentialFileCalls writes one 4 MiB file in 256 KiB chunks and syncs,
// remounts to empty the buffer cache, and reads the file back. It returns
// the device write calls of the write+sync and the read calls of the cold
// read-back. mount returns the filesystem over dev and its unmount; the
// supervisor's twin of this trace mounts through core.Mount.
func SequentialFileCalls(t *testing.T, mount func(blockdev.Device) (fsapi.FS, func() error, error)) (writeCalls, readCalls int64) {
	t.Helper()
	const fileBytes, chunk = 4 << 20, 256 << 10
	dev := blockdev.NewMem(2*fileBytes/disklayout.BlockSize + 4096)
	if _, err := mkfs.Format(dev, mkfs.Options{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	fs, unmount, err := mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	w0 := dev.Stats().WriteCalls.Load()
	fd, err := fs.Create("/big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < fileBytes; off += chunk {
		if _, err := fs.WriteAt(fd, off, buf); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	writeCalls = dev.Stats().WriteCalls.Load() - w0
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := unmount(); err != nil {
		t.Fatal(err)
	}

	if fs, unmount, err = mount(dev); err != nil {
		t.Fatal(err)
	}
	defer unmount()
	r0 := dev.Stats().ReadCalls.Load()
	if fd, err = fs.Open("/big"); err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < fileBytes; off += chunk {
		got, err := fs.ReadAt(fd, off, chunk)
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if len(got) != chunk || got[0] != buf[0] || got[chunk-1] != buf[chunk-1] {
			t.Fatalf("read-back mismatch at %d", off)
		}
	}
	return writeCalls, dev.Stats().ReadCalls.Load() - r0
}

// TestFullBlockOverwriteSkipsRead pins the overwrite path: rewriting a whole
// mapped block that is not cached replaces every byte, so it must not read
// the device first, while a 100-byte overwrite merges into the old content
// and must read exactly its one block.
func TestFullBlockOverwriteSkipsRead(t *testing.T) {
	dev := blockdev.NewMem(4096)
	if _, err := mkfs.Format(dev, mkfs.Options{}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := fs.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(fd, 0, make([]byte, 4*disklayout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if fs, err = Mount(dev, Options{}); err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	if fd, err = fs.Open("/f"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		off, n int
		reads  int64
	}{
		{off: disklayout.BlockSize, n: disklayout.BlockSize, reads: 0},
		{off: 2*disklayout.BlockSize + 7, n: 100, reads: 1},
	} {
		r0 := dev.Stats().Reads.Load()
		if _, err := fs.WriteAt(fd, int64(c.off), bytes.Repeat([]byte{0xA5}, c.n)); err != nil {
			t.Fatal(err)
		}
		if got := dev.Stats().Reads.Load() - r0; got != c.reads {
			t.Errorf("%d-byte overwrite of an uncached block: %d device reads, want %d", c.n, got, c.reads)
		}
	}
	got, err := fs.ReadAt(fd, 0, 4*disklayout.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 4*disklayout.BlockSize)
	copy(want[disklayout.BlockSize:], bytes.Repeat([]byte{0xA5}, disklayout.BlockSize))
	copy(want[2*disklayout.BlockSize+7:], bytes.Repeat([]byte{0xA5}, 100))
	if !bytes.Equal(got, want) {
		t.Error("file content after the overwrites differs from the written bytes")
	}
}
