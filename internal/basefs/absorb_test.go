package basefs

import (
	"bytes"
	"errors"
	"maps"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/handoff"
	"repro/internal/mkfs"
	"repro/internal/shadowfs"
)

// buildImage has a shadow produce a real hand-off image for a fresh image.
func buildImage(t *testing.T, dev *blockdev.Mem) *handoff.Image {
	t.Helper()
	sh, err := shadowfs.New(dev, shadowfs.Options{SkipFsck: true})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := sh.Create("/recovered", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.WriteAt(fd, 0, []byte("from the shadow")); err != nil {
		t.Fatal(err)
	}
	res, err := sh.Replay(shadowfs.ReplayInput{StartClock: sh.Clock()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Image.Blocks) == 0 || len(res.Image.FDs) != 1 {
		t.Fatalf("handoff = %d blocks, fds %+v", len(res.Image.Blocks), res.Image.FDs)
	}
	return res.Image
}

func TestAbsorbInstallsShadowState(t *testing.T) {
	dev := blockdev.NewMem(4096)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	im := buildImage(t, dev)
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	if err := fs.AbsorbImage(im); err != nil {
		t.Fatalf("AbsorbImage: %v", err)
	}
	if fs.Clock() != im.Clock {
		t.Errorf("clock = %d, want %d", fs.Clock(), im.Clock)
	}
	// The absorbed descriptor works immediately.
	got, err := fs.ReadAt(im.FDs[0].FD, 0, 100)
	if err != nil || string(got) != "from the shadow" {
		t.Fatalf("read through absorbed fd = (%q, %v)", got, err)
	}
	// The state is dirty, not durable, until the next sync.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Kill()
	fd, err := fs2.Open("/recovered")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = fs2.ReadAt(fd, 0, 100)
	if string(got) != "from the shadow" {
		t.Errorf("durable content = %q", got)
	}
}

// sealed is a sealed image of zeroed blocks with the given descriptor table.
func sealed(fds []handoff.FDEntry, blks ...uint32) *handoff.Image {
	im := &handoff.Image{FDs: fds}
	for _, blk := range blks {
		im.Blocks = append(im.Blocks, handoff.Block{Blk: blk, Data: make([]byte, disklayout.BlockSize)})
	}
	im.Seal()
	return im
}

// dirtyVersions maps each of fs's dirty buffers to its version, which every
// Install bumps.
func dirtyVersions(fs *FS) map[uint32]uint64 {
	out := map[uint32]uint64{}
	for _, d := range fs.bc.SnapshotDirty(nil) {
		out[d.Blk] = d.Ver
	}
	return out
}

// TestAbsorbRejections: everything the base refuses at the hand-off boundary.
// Each case builds the image on its own fresh mount, and absorbing it must
// fail without installing anything. Verify refuses all but the last two rows
// before the first Install; those two are refused over the installed state,
// so they carry no blocks.
func TestAbsorbRejections(t *testing.T) {
	fd := func(fd fsapi.FD, ino uint32) []handoff.FDEntry { return []handoff.FDEntry{{FD: fd, Ino: ino}} }
	cases := []struct {
		name  string
		image func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image
	}{
		{"bad checksum", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			im := sealed(nil, sb.DataStart)
			im.Blocks[0].Data[7] ^= 1
			return im
		}},
		{"clock tampered after seal", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			im := sealed(nil, sb.DataStart)
			im.Clock++
			return im
		}},
		{"short block", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			im := &handoff.Image{Blocks: []handoff.Block{{Blk: sb.DataStart, Data: []byte{1, 2, 3}}}}
			im.Seal()
			return im
		}},
		{"duplicate block", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			return sealed(nil, sb.DataStart, sb.DataStart+1, sb.DataStart)
		}},
		{"block 0", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			return sealed(nil, 0, sb.DataStart)
		}},
		{"block past the image", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			return sealed(nil, sb.DataStart, sb.NumBlocks+5)
		}},
		{"journal-region block", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			return sealed(nil, sb.JournalStart, sb.DataStart)
		}},
		{"duplicate fd", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			f, err := fs.Create("/f", 0o644)
			mustOK(t, err)
			st, err := fs.Fstat(f)
			mustOK(t, err)
			return sealed(append(fd(0, st.Ino), fd(0, st.Ino)...), sb.DataStart)
		}},
		{"fd to inode 0", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			return sealed(fd(0, 0), sb.DataStart)
		}},
		{"fd to directory", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			return sealed(fd(0, sb.RootIno))
		}},
		{"fd to unallocated inode", func(t *testing.T, fs *FS, sb *disklayout.Superblock) *handoff.Image {
			return sealed(fd(0, 17))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := blockdev.NewMem(4096)
			sb, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64})
			if err != nil {
				t.Fatal(err)
			}
			fs, err := Mount(dev, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Kill()
			im := tc.image(t, fs, sb)
			before := dirtyVersions(fs)
			if err := fs.AbsorbImage(im); !errors.Is(err, fserr.ErrCorrupt) {
				t.Errorf("absorb = %v, want ErrCorrupt", err)
			}
			if after := dirtyVersions(fs); !maps.Equal(after, before) {
				t.Errorf("a rejected image installed blocks: dirty %v, before %v", after, before)
			}
		})
	}
}

// mustOK fails the test on an error from a case's set-up step.
func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestFsyncAndSetPermDirect(t *testing.T) {
	fs, dev := newFS(t)
	fd, err := fs.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(fd, 0, []byte("fsync me")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync(99); !errors.Is(err, fserr.ErrBadFD) {
		t.Errorf("fsync bad fd: %v", err)
	}
	if err := fs.SetPerm("/f", 0o400); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat("/f")
	if disklayout.ModePerm(st.Mode) != 0o400 {
		t.Errorf("perm = %o", disklayout.ModePerm(st.Mode))
	}
	if err := fs.SetPerm("/missing", 0o400); !errors.Is(err, fserr.ErrNotExist) {
		t.Errorf("setperm missing: %v", err)
	}
	// Fsync persisted the data: crash and verify.
	crash := dev.Snapshot()
	fs.Close(fd)
	fs.Kill()
	fs2, err := Mount(crash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Kill()
	fd2, err := fs2.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fs2.ReadAt(fd2, 0, 100)
	if !bytes.Equal(got, []byte("fsync me")) {
		t.Errorf("fsync durability: %q", got)
	}
}

func TestTruncateThroughDoubleIndirect(t *testing.T) {
	// A file reaching into the double-indirect range, then truncated in
	// stages, exercising truncateDouble's pruning.
	dev := blockdev.NewMem(16384)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 64, JournalBlocks: 32}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	fd, err := fs.Create("/deep", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close(fd)
	// Sparse writes at indices straddling the double-indirect boundary.
	idxs := []int64{
		0,
		disklayout.NumDirect,
		disklayout.NumDirect + disklayout.PtrsPerBlock - 1,
		disklayout.NumDirect + disklayout.PtrsPerBlock, // first dbl-indirect
		disklayout.NumDirect + disklayout.PtrsPerBlock + disklayout.PtrsPerBlock + 3,
	}
	for _, idx := range idxs {
		if _, err := fs.WriteAt(fd, idx*disklayout.BlockSize, []byte{byte(idx)}); err != nil {
			t.Fatalf("write idx %d: %v", idx, err)
		}
	}
	for _, idx := range idxs {
		got, err := fs.ReadAt(fd, idx*disklayout.BlockSize, 1)
		if err != nil || got[0] != byte(idx) {
			t.Fatalf("read idx %d: %v", idx, err)
		}
	}
	// Truncate back below the double-indirect range: its chain must be
	// freed entirely.
	cut := (disklayout.NumDirect + disklayout.PtrsPerBlock) * disklayout.BlockSize
	if err := fs.Truncate("/deep", int64(cut)); err != nil {
		t.Fatal(err)
	}
	// And fully.
	if err := fs.Truncate("/deep", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Space fully reclaimed: a fresh max-range write succeeds again.
	if _, err := fs.WriteAt(fd, int64(disklayout.NumDirect+disklayout.PtrsPerBlock+10)*disklayout.BlockSize,
		[]byte("again")); err != nil {
		t.Fatalf("rewrite after deep truncate: %v", err)
	}
}

func TestRenameDirAcrossParentsDirect(t *testing.T) {
	fs, _ := newFS(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.Mkdir("/p1", 0o755))
	must(fs.Mkdir("/p2", 0o755))
	must(fs.Mkdir("/p1/child", 0o755))
	fd, _ := fs.Create("/p1/child/file", 0o644)
	fs.Close(fd)
	must(fs.Rename("/p1/child", "/p2/child"))
	s1, _ := fs.Stat("/p1")
	s2, _ := fs.Stat("/p2")
	if s1.Nlink != 2 || s2.Nlink != 3 {
		t.Errorf("nlinks after cross-parent dir move: p1=%d p2=%d", s1.Nlink, s2.Nlink)
	}
	if _, err := fs.Stat("/p2/child/file"); err != nil {
		t.Errorf("content lost in move: %v", err)
	}
	// Error branches.
	if err := fs.Rename("/missing", "/p2/x"); !errors.Is(err, fserr.ErrNotExist) {
		t.Errorf("rename missing: %v", err)
	}
	if err := fs.Rename("/p2/child", "/p2/child/inside"); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("rename into self: %v", err)
	}
	if err := fs.Rename("/p2/child", "/p2/child"); err != nil {
		t.Errorf("rename self noop: %v", err)
	}
	long := string(bytes.Repeat([]byte{'n'}, disklayout.MaxNameLen+1))
	if err := fs.Rename("/p2/child", "/p2/"+long); !errors.Is(err, fserr.ErrNameTooLong) {
		t.Errorf("rename long name: %v", err)
	}
}

func TestSuperblockAccessor(t *testing.T) {
	fs, _ := newFS(t)
	if fs.Superblock() == nil || fs.Superblock().RootIno != disklayout.RootIno {
		t.Error("Superblock accessor broken")
	}
	fs.SetClock(42)
	if fs.Clock() != 42 {
		t.Error("clock accessors broken")
	}
}
