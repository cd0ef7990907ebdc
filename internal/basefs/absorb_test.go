package basefs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/handoff"
	"repro/internal/mkfs"
	"repro/internal/shadowfs"
)

// buildStream has a shadow produce a real one-chunk handoff for a fresh image.
func buildStream(t *testing.T, dev *blockdev.Mem) (*handoff.Chunk, *handoff.Manifest) {
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
	if len(res.Chunks) != 1 || len(res.Manifest.FDs) != 1 {
		t.Fatalf("handoff = chunks %v, fds %+v", res.Chunks, res.Manifest.FDs)
	}
	return res.Chunks[0], res.Manifest
}

func TestAbsorbInstallsShadowState(t *testing.T) {
	dev := blockdev.NewMem(4096)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	c, m := buildStream(t, dev)
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	if err := fs.AbsorbChunk(c); err != nil {
		t.Fatalf("AbsorbChunk: %v", err)
	}
	if err := fs.AbsorbManifest(m); err != nil {
		t.Fatalf("AbsorbManifest: %v", err)
	}
	if fs.Clock() != m.Clock {
		t.Errorf("clock = %d, want %d", fs.Clock(), m.Clock)
	}
	// The absorbed descriptor works immediately.
	got, err := fs.ReadAt(m.FDs[0].FD, 0, 100)
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

// TestAbsorbChunkStream splits a real shadow handoff into a two-chunk stream
// (including a retraction) and verifies absorbing it ends in the state the
// one chunk describes, with the manifest catching a truncated stream.
func TestAbsorbChunkStream(t *testing.T) {
	dev := blockdev.NewMem(4096)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	whole, wm := buildStream(t, dev)
	blks := whole.SortedBlocks()
	if len(blks) < 2 {
		t.Fatalf("handoff too small to split: %d blocks", len(blks))
	}
	// Chunk 0: first half plus a decoy block later retracted. Chunk 1: rest.
	decoy := blks[len(blks)-1] + 1
	c0 := handoff.NewChunk(0)
	for _, blk := range blks[:len(blks)/2] {
		c0.Blocks[blk] = whole.Blocks[blk]
		c0.Meta[blk] = whole.Meta[blk]
	}
	decoyData := make([]byte, disklayout.BlockSize)
	for i := range decoyData {
		decoyData[i] = 0xAB
	}
	c0.Blocks[decoy] = decoyData
	c0.Seal()
	c1 := handoff.NewChunk(1)
	for _, blk := range blks[len(blks)/2:] {
		c1.Blocks[blk] = whole.Blocks[blk]
		c1.Meta[blk] = whole.Meta[blk]
	}
	c1.Freed = []uint32{decoy}
	c1.Seal()
	m := sealedManifest(wm.FDs, c0, c1)
	m.Clock = wm.Clock
	m.Seal()

	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	if err := fs.AbsorbChunk(c0); err != nil {
		t.Fatalf("chunk 0: %v", err)
	}
	// A manifest before the full stream must fail the chain check.
	if err := fs.AbsorbManifest(m); !errors.Is(err, fserr.ErrCorrupt) {
		t.Fatalf("early manifest: %v", err)
	}
	if err := fs.AbsorbChunk(c1); err != nil {
		t.Fatalf("chunk 1: %v", err)
	}
	if err := fs.AbsorbManifest(m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if fs.Clock() != m.Clock {
		t.Errorf("clock = %d, want %d", fs.Clock(), m.Clock)
	}
	got, err := fs.ReadAt(m.FDs[0].FD, 0, 100)
	if err != nil || string(got) != "from the shadow" {
		t.Fatalf("read through absorbed fd = (%q, %v)", got, err)
	}
	// The retracted decoy never reaches the device.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	raw, err := dev.ReadBlock(decoy)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range raw {
		if b != 0 {
			// Freshly formatted device: the decoy block must still be zero.
			t.Fatal("retracted chunk block leaked to the device")
		}
	}
}

// sealedChunk is a sealed chunk of zeroed blocks at the given stream index.
func sealedChunk(index int, blks ...uint32) *handoff.Chunk {
	c := handoff.NewChunk(index)
	for _, blk := range blks {
		c.Blocks[blk] = make([]byte, disklayout.BlockSize)
	}
	c.Seal()
	return c
}

// sealedManifest closes the stream made of exactly the given chunks.
func sealedManifest(fds []handoff.FDEntry, chunks ...*handoff.Chunk) *handoff.Manifest {
	sums := make([]uint32, len(chunks))
	for i, c := range chunks {
		sums[i] = c.Sum
	}
	m := &handoff.Manifest{NumChunks: len(chunks), Chain: handoff.ChainSums(sums), FDs: fds}
	m.Seal()
	return m
}

// mustOK fails the test on an error from a case's set-up step.
func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbsorbRejections: everything the base refuses at the hand-off boundary.
// Each case runs on its own fresh mount and returns the error of the call
// that must be refused; earlier calls in a case must succeed.
func TestAbsorbRejections(t *testing.T) {
	fd := func(fd fsapi.FD, ino uint32) handoff.FDEntry { return handoff.FDEntry{FD: fd, Ino: ino} }
	cases := []struct {
		name string
		run  func(t *testing.T, fs *FS, sb *disklayout.Superblock) error
	}{
		{"bad checksum", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			c := sealedChunk(0, sb.DataStart)
			c.Blocks[sb.DataStart][7] ^= 1
			return fs.AbsorbChunk(c)
		}},
		{"short block", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			c := handoff.NewChunk(0)
			c.Blocks[sb.DataStart] = []byte{1, 2, 3}
			c.Seal()
			return fs.AbsorbChunk(c)
		}},
		{"block 0", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			return fs.AbsorbChunk(sealedChunk(0, 0))
		}},
		{"block past the image", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			return fs.AbsorbChunk(sealedChunk(0, sb.NumBlocks+5))
		}},
		{"journal-region block", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			return fs.AbsorbChunk(sealedChunk(0, sb.JournalStart))
		}},
		{"freed journal-region block", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			c := handoff.NewChunk(0)
			c.Freed = []uint32{sb.JournalStart}
			c.Seal()
			return fs.AbsorbChunk(c)
		}},
		{"out-of-order index", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			return fs.AbsorbChunk(sealedChunk(1, sb.DataStart))
		}},
		{"duplicate chunk", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			c := sealedChunk(0, sb.DataStart)
			mustOK(t, fs.AbsorbChunk(c))
			return fs.AbsorbChunk(c)
		}},
		{"missing chunk against the manifest chain", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			c0, c1 := sealedChunk(0, sb.DataStart), sealedChunk(1, sb.DataStart+1)
			mustOK(t, fs.AbsorbChunk(c0))
			return fs.AbsorbManifest(sealedManifest(nil, c0, c1))
		}},
		{"manifest bad checksum", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			m := sealedManifest(nil)
			m.Clock++
			return fs.AbsorbManifest(m)
		}},
		{"duplicate fd", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			f, err := fs.Create("/f", 0o644)
			mustOK(t, err)
			st, err := fs.Fstat(f)
			mustOK(t, err)
			return fs.AbsorbManifest(sealedManifest([]handoff.FDEntry{fd(0, st.Ino), fd(0, st.Ino)}))
		}},
		{"fd to inode 0", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			return fs.AbsorbManifest(sealedManifest([]handoff.FDEntry{fd(0, 0)}))
		}},
		{"fd to directory", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			return fs.AbsorbManifest(sealedManifest([]handoff.FDEntry{fd(0, sb.RootIno)}))
		}},
		{"fd to unallocated inode", func(t *testing.T, fs *FS, sb *disklayout.Superblock) error {
			return fs.AbsorbManifest(sealedManifest([]handoff.FDEntry{fd(0, 17)}))
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
			if err := tc.run(t, fs, sb); !errors.Is(err, fserr.ErrCorrupt) {
				t.Errorf("absorb = %v, want ErrCorrupt", err)
			}
		})
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
