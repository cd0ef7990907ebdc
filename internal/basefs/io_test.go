package basefs

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/telemetry"
)

// TestMountStartsNoGoroutine holds the base to one IO path: every device
// call runs on the caller's goroutine, so a mount, a write, an fsync and a
// Kill leave the goroutine count where it was, mount after mount.
func TestMountStartsNoGoroutine(t *testing.T) {
	fs0, dev := newFS(t)
	fs0.Kill()
	// An earlier test's goroutine may still be returning: settle first.
	base := runtime.NumGoroutine()
	for {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n == base {
			break
		}
		base = n
	}
	check := func(i int, when string) {
		t.Helper()
		if got := runtime.NumGoroutine(); got != base {
			t.Fatalf("mount %d, %s: %d goroutines, want %d", i, when, got, base)
		}
	}
	for i := 0; i < 10; i++ {
		fs, err := Mount(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(i, "after Mount")
		fd, err := fs.Create(fmt.Sprintf("/g%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(fd, 0, bytes.Repeat([]byte{byte(i)}, 3*disklayout.BlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		check(i, "after write and fsync")
		fs.Kill()
		check(i, "after Kill")
	}
}

// TestBaseDeviceTelemetryMatchesDevice checks that "blockdev.base.*" sees
// every IO the base issues, the extent path's cold reads and the superblock
// writes included: from just after Mount to Unmount its counters move
// exactly as the device's own do.
func TestBaseDeviceTelemetryMatchesDevice(t *testing.T) {
	fs, dev := newFS(t)
	want := bytes.Repeat([]byte{0x5C}, 8*disklayout.BlockSize)
	fd, err := fs.Create("/cold", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(fd, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	fs, err = Mount(dev, Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	names := [3]string{"reads", "writes", "flushes"}
	count := func() (base, mem [3]int64) {
		for i, name := range names {
			base[i] = tel.Counter("blockdev.base." + name).Value()
		}
		s := dev.Stats().Snapshot()
		return base, [3]int64{s.Reads, s.Writes, s.Flushes}
	}
	tel0, dev0 := count()

	fd, err = fs.Open("/cold")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt(fd, 0, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cold read returned the wrong bytes")
	}
	if _, err := fs.WriteAt(fd, 0, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	tel1, dev1 := count()
	for i, name := range names {
		if d, m := tel1[i]-tel0[i], dev1[i]-dev0[i]; d != m {
			t.Errorf("blockdev.base.%s moved %d, the device's %s %d", name, d, name, m)
		}
	}
	if n := dev1[0] - dev0[0]; n < int64(len(want)/disklayout.BlockSize) {
		t.Errorf("the cold read moved %d blocks, want at least %d", n, len(want)/disklayout.BlockSize)
	}
	if n := dev1[2] - dev0[2]; n < 2 {
		t.Errorf("fsync and unmount issued %d flushes, want at least 2", n)
	}
}

// dataDirty returns the cache's dirty data (non-metadata) blocks.
func (fs *FS) dataDirty() map[uint32]bool {
	dirty := map[uint32]bool{}
	for _, s := range fs.bc.SnapshotDirty(nil) {
		if !s.Meta {
			dirty[s.Blk] = true
		}
	}
	return dirty
}

// TestFailedWriteBackKeepsCachedDataDirty holds Phase B's rule for cached
// (non-delalloc) data: a buffer is marked clean only after its write
// succeeded. The device fails the round's data write after one block has
// reached it, so every snapshotted block must stay dirty; once the fault
// clears, the next fsync writes them and a crash image holds the new bytes.
func TestFailedWriteBackKeepsCachedDataDirty(t *testing.T) {
	const blocks = 4
	fs, dev := newFS(t)
	fd, err := fs.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(fd, 0, bytes.Repeat([]byte{0xA1}, blocks*disklayout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	// The blocks are placed now, so the overwrite goes through the cache.
	want := bytes.Repeat([]byte{0xB2}, blocks*disklayout.BlockSize)
	if _, err := fs.WriteAt(fd, 0, want); err != nil {
		t.Fatal(err)
	}
	snapped := fs.dataDirty()
	if len(snapped) != blocks {
		t.Fatalf("%d dirty data blocks before the round, want %d", len(snapped), blocks)
	}

	// Phase B's data run is the round's first device write: let its first
	// block through, then fail every write. The hook runs on the syncing
	// goroutine, the one that reads the plan.
	plan := &blockdev.FaultPlan{}
	dev.SetFaults(plan)
	var written []uint32
	dev.SetWriteHook(func(blk uint32) {
		written = append(written, blk)
		plan.WriteErrProb = 1
	})
	if err := fs.Fsync(fd); err == nil {
		t.Fatal("fsync succeeded with the data write failing")
	}
	dev.SetWriteHook(nil)
	dev.SetFaults(nil)
	if len(written) != 1 || !snapped[written[0]] {
		t.Fatalf("the failed round wrote %v, want one of the snapshotted blocks %v", written, snapped)
	}
	if still := fs.dataDirty(); len(still) != blocks {
		t.Fatalf("after the failed round %d of %d snapshotted blocks are dirty", len(still), blocks)
	}

	if err := fs.Fsync(fd); err != nil {
		t.Fatalf("fsync after clearing the fault: %v", err)
	}
	if still := fs.dataDirty(); len(still) != 0 {
		t.Fatalf("%d data blocks still dirty after a successful round", len(still))
	}
	fs2, err := Mount(dev.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Kill()
	fd2, err := fs2.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs2.ReadAt(fd2, 0, len(want)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the crash image does not hold the rewritten bytes (err %v)", err)
	}
}
