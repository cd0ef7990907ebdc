package basefs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fserr"
	"repro/internal/mkfs"
)

func newFS(t *testing.T) (*FS, *blockdev.Mem) {
	t.Helper()
	dev := blockdev.NewMem(4096)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Kill)
	return fs, dev
}

func TestMountFreshImage(t *testing.T) {
	fs, _ := newFS(t)
	st, err := fs.Stat("/")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ino != disklayout.RootIno || disklayout.ModeType(st.Mode) != disklayout.TypeDir {
		t.Errorf("root stat = %+v", st)
	}
	ents, err := fs.Readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("fresh root has %d entries", len(ents))
	}
}

func TestCreateWriteReadPersistence(t *testing.T) {
	fs, dev := newFS(t)
	fd, err := fs.Create("/file", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("shadowfs"), 1000) // crosses two blocks
	n, err := fs.WriteAt(fd, 0, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("WriteAt = (%d, %v)", n, err)
	}
	got, err := fs.ReadAt(fd, 0, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("readback before sync failed: %v", err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Remount and verify durability.
	fs2, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Kill()
	fd2, err := fs2.Open("/file")
	if err != nil {
		t.Fatal(err)
	}
	got, err = fs2.ReadAt(fd2, 0, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatal("data lost across unmount/mount")
	}
}

func TestSyncThenCrashPreservesState(t *testing.T) {
	fs, dev := newFS(t)
	fd, _ := fs.Create("/durable", 0o644)
	fs.WriteAt(fd, 0, []byte("committed"))
	fs.Close(fd)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: snapshot the device, no unmount.
	crash := dev.Snapshot()
	fs.Kill()
	fs2, err := Mount(crash, Options{})
	if err != nil {
		t.Fatalf("mount after crash: %v", err)
	}
	defer fs2.Kill()
	fd2, err := fs2.Open("/durable")
	if err != nil {
		t.Fatalf("file lost after sync+crash: %v", err)
	}
	got, _ := fs2.ReadAt(fd2, 0, 100)
	if string(got) != "committed" {
		t.Errorf("content = %q", got)
	}
}

func TestUnsyncedStateLostOnCrash(t *testing.T) {
	fs, dev := newFS(t)
	fd, _ := fs.Create("/volatile", 0o644)
	fs.WriteAt(fd, 0, []byte("buffered"))
	// No sync, no close: crash now.
	crash := dev.Snapshot()
	fs.Kill()
	fs2, err := Mount(crash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Kill()
	if _, err := fs2.Open("/volatile"); !errors.Is(err, fserr.ErrNotExist) {
		t.Errorf("unsynced file visible after crash: %v", err)
	}
}

func TestLargeFileThroughIndirects(t *testing.T) {
	fs, _ := newFS(t)
	fd, _ := fs.Create("/big", 0o644)
	defer fs.Close(fd)
	// Write a file spanning direct + single-indirect + into double-indirect.
	blocks := int64(disklayout.NumDirect + disklayout.PtrsPerBlock + 40)
	stamp := func(i int64) []byte {
		b := make([]byte, 8)
		for j := range b {
			b[j] = byte(i >> (8 * j))
		}
		return b
	}
	for i := int64(0); i < blocks; i += 97 { // sample sparse offsets
		if _, err := fs.WriteAt(fd, i*disklayout.BlockSize, stamp(i)); err != nil {
			t.Fatalf("write block %d: %v", i, err)
		}
	}
	for i := int64(0); i < blocks; i += 97 {
		got, err := fs.ReadAt(fd, i*disklayout.BlockSize, 8)
		if err != nil || !bytes.Equal(got, stamp(i)) {
			t.Fatalf("read block %d: got %x err %v", i, got, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync large file: %v", err)
	}
}

func TestTruncateReleasesAndZeroes(t *testing.T) {
	fs, _ := newFS(t)
	fd, _ := fs.Create("/t", 0o644)
	defer fs.Close(fd)
	fs.WriteAt(fd, 0, bytes.Repeat([]byte{0xAB}, 3*disklayout.BlockSize))
	if err := fs.Truncate("/t", 100); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/t", 2*disklayout.BlockSize); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadAt(fd, 0, 2*disklayout.BlockSize)
	for i := 100; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d = %#x after shrink+grow", i, got[i])
		}
	}
	for i := 0; i < 100; i++ {
		if got[i] != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB", i, got[i])
		}
	}
}

func TestDirOperations(t *testing.T) {
	fs, _ := newFS(t)
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // force directory growth past one block
		if err := fs.Mkdir("/d/sub"+itoa(i), 0o755); err != nil {
			t.Fatalf("mkdir %d: %v", i, err)
		}
	}
	ents, err := fs.Readdir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 100 {
		t.Fatalf("readdir = %d entries", len(ents))
	}
	st, _ := fs.Stat("/d")
	if st.Nlink != 102 {
		t.Errorf("dir nlink = %d, want 102", st.Nlink)
	}
	for i := 0; i < 100; i++ {
		if err := fs.Rmdir("/d/sub" + itoa(i)); err != nil {
			t.Fatalf("rmdir %d: %v", i, err)
		}
	}
	st, _ = fs.Stat("/d")
	if st.Nlink != 2 {
		t.Errorf("dir nlink after rmdirs = %d", st.Nlink)
	}
	if err := fs.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestRenameAndLinks(t *testing.T) {
	fs, _ := newFS(t)
	fd, _ := fs.Create("/a", 0o644)
	fs.WriteAt(fd, 0, []byte("content"))
	fs.Close(fd)
	if err := fs.Link("/a", "/hard"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	sb, _ := fs.Stat("/b")
	sh, _ := fs.Stat("/hard")
	if sb.Ino != sh.Ino || sb.Nlink != 2 {
		t.Errorf("stats after rename: b=%+v hard=%+v", sb, sh)
	}
	// Rename over existing target.
	fd, _ = fs.Create("/c", 0o644)
	fs.WriteAt(fd, 0, []byte("ccc"))
	fs.Close(fd)
	if err := fs.Rename("/b", "/c"); err != nil {
		t.Fatal(err)
	}
	fd, _ = fs.Open("/c")
	got, _ := fs.ReadAt(fd, 0, 10)
	fs.Close(fd)
	if string(got) != "content" {
		t.Errorf("rename-over content = %q", got)
	}
}

func TestSymlinkRoundTrip(t *testing.T) {
	fs, dev := newFS(t)
	if err := fs.Symlink("/some/where", "/ln"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Readlink("/ln")
	if err != nil || got != "/some/where" {
		t.Errorf("readlink = (%q, %v)", got, err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, _ := Mount(dev, Options{})
	defer fs2.Kill()
	got, err = fs2.Readlink("/ln")
	if err != nil || got != "/some/where" {
		t.Errorf("readlink after remount = (%q, %v)", got, err)
	}
}

func TestOpenUnlinkedOrphan(t *testing.T) {
	fs, _ := newFS(t)
	fd, _ := fs.Create("/orphan", 0o644)
	fs.WriteAt(fd, 0, []byte("ghost data"))
	if err := fs.Unlink("/orphan"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt(fd, 0, 100)
	if err != nil || string(got) != "ghost data" {
		t.Errorf("orphan read = (%q, %v)", got, err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	// The inode and blocks must be reusable now.
	fd2, err := fs.Create("/next", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Fstat(fd2)
	if st.Ino != 2 {
		t.Errorf("freed ino not reused: got %d", st.Ino)
	}
	fs.Close(fd2)
}

func TestFDReuseLowestFree(t *testing.T) {
	fs, _ := newFS(t)
	fd0, _ := fs.Create("/f0", 0o644)
	fd1, _ := fs.Create("/f1", 0o644)
	fd2, _ := fs.Create("/f2", 0o644)
	if fd0 != 0 || fd1 != 1 || fd2 != 2 {
		t.Fatalf("fds = %d %d %d", fd0, fd1, fd2)
	}
	fs.Close(fd1)
	r, _ := fs.Open("/f0")
	if r != 1 {
		t.Errorf("reopened fd = %d, want 1", r)
	}
}

func TestENOSPCAndRecoveryOfSpace(t *testing.T) {
	dev := blockdev.NewMem(220)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 64, JournalBlocks: 16}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	fd, _ := fs.Create("/big", 0o644)
	defer fs.Close(fd)
	buf := make([]byte, disklayout.BlockSize)
	var werr error
	wrote := int64(0)
	for i := 0; i < 500; i++ {
		n, err := fs.WriteAt(fd, wrote, buf)
		wrote += int64(n)
		if err != nil {
			werr = err
			break
		}
	}
	if !errors.Is(werr, fserr.ErrNoSpace) {
		t.Fatalf("no ENOSPC on tiny image (wrote %d)", wrote)
	}
	if err := fs.Truncate("/big", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(fd, 0, buf); err != nil {
		t.Errorf("write after truncate: %v", err)
	}
}

func TestJournalReplayAfterMidSyncCrash(t *testing.T) {
	// Write a committed journal transaction by hand, crash before
	// checkpoint, and check mount replays it. Exercised through the public
	// API: sync, snapshot during the checkpoint window is hard to time, so
	// instead verify replay idempotency through double mount.
	fs, dev := newFS(t)
	fd, _ := fs.Create("/j", 0o644)
	fs.WriteAt(fd, 0, []byte("journaled"))
	fs.Close(fd)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	crash := dev.Snapshot()
	fs.Kill()
	for i := 0; i < 2; i++ { // double mount: replay must be idempotent
		fsi, err := Mount(crash, Options{})
		if err != nil {
			t.Fatalf("mount %d: %v", i, err)
		}
		if _, err := fsi.Stat("/j"); err != nil {
			t.Fatalf("mount %d lost file: %v", i, err)
		}
		fsi.Kill()
	}
}

func TestCacheHitRates(t *testing.T) {
	fs, _ := newFS(t)
	for i := 0; i < 10; i++ {
		fd, _ := fs.Create("/f"+itoa(i), 0o644)
		fs.WriteAt(fd, 0, []byte("x"))
		fs.Close(fd)
	}
	for i := 0; i < 100; i++ {
		if _, err := fs.Stat("/f" + itoa(i%10)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, _, dh, _ := fs.CacheStats()
	if dh == 0 {
		t.Error("dentry cache never hit on a hot-path workload")
	}
}

func TestStatErrnos(t *testing.T) {
	fs, _ := newFS(t)
	if _, err := fs.Stat("/nope"); !errors.Is(err, fserr.ErrNotExist) {
		t.Errorf("stat missing: %v", err)
	}
	fd, _ := fs.Create("/f", 0o644)
	fs.Close(fd)
	if _, err := fs.Stat("/f/below"); !errors.Is(err, fserr.ErrNotDir) {
		t.Errorf("stat through file: %v", err)
	}
	if _, err := fs.Open("/"); !errors.Is(err, fserr.ErrIsDir) {
		t.Errorf("open dir: %v", err)
	}
	if err := fs.Close(99); !errors.Is(err, fserr.ErrBadFD) {
		t.Errorf("close bad fd: %v", err)
	}
}

func TestWarnChannel(t *testing.T) {
	var got []Warning
	dev := blockdev.NewMem(1024)
	mkfs.Format(dev, mkfs.Options{})
	fs, err := Mount(dev, Options{OnWarn: func(w Warning) { got = append(got, w) }})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	fs.Warnf("something odd: %d", 42)
	if len(got) != 1 || got[0].Msg != "something odd: 42" {
		t.Errorf("warn callback got %+v", got)
	}
	if len(fs.Warnings()) != 1 {
		t.Error("warning not recorded")
	}
}

// TestWalkPathAllocs pins the hit path's path walk: a 3-component path whose
// dentries and inodes are cached resolves without allocating, because the
// splitter appends into a stack array.
func TestWalkPathAllocs(t *testing.T) {
	fs, _ := newFS(t)
	for _, d := range []string{"/a", "/a/b"} {
		if err := fs.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	fd, err := fs.Create("/a/b/c", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.walkPath("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := fs.walkPath("/a/b/c"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached walkPath allocates %v times, want 0", allocs)
	}
}
