package basefs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/cache"
	"repro/internal/disklayout"
	"repro/internal/fserr"
	"repro/internal/journal"
	"repro/internal/mkfs"
)

// TestCheckpointWritesRuns pins the checkpoint's write shape: the unstable
// blocks go home as one device call per run of adjacent blocks, plus the
// journal superblock, behind the same two flushes.
func TestCheckpointWritesRuns(t *testing.T) {
	fs, dev := mountFsyncImage(t)
	// 100 inodes span four adjacent inode-table blocks, so the round leaves
	// at least one multi-block run unstable.
	for i := 0; i < 100; i++ {
		fd, err := fs.Create(fmt.Sprintf("/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	blks := make([]uint32, 0, len(fs.unstable))
	for blk := range fs.unstable {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	runs := 0
	for i := 0; i < len(blks); i = runEnd(i, len(blks), func(k int) uint32 { return blks[k] }) {
		runs++
	}
	if runs == len(blks) {
		t.Fatalf("unstable blocks %v hold no multi-block run", blks)
	}

	before := dev.Stats().Snapshot()
	flushes, err := fs.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	after := dev.Stats().Snapshot()
	if calls, want := after.WriteCalls-before.WriteCalls, int64(runs+1); calls != want {
		t.Errorf("checkpoint of %d blocks in %d runs: %d write calls, want %d (one per run + JSB)",
			len(blks), runs, calls, want)
	}
	if n, want := after.Writes-before.Writes, int64(len(blks)+1); n != want {
		t.Errorf("checkpoint wrote %d blocks, want %d", n, want)
	}
	if n := after.Flushes - before.Flushes; n != 2 || flushes != 2 {
		t.Errorf("checkpoint: %d device flushes (reported %d), want 2", n, flushes)
	}
	if len(fs.unstable) != 0 {
		t.Errorf("%d blocks still unstable after the checkpoint", len(fs.unstable))
	}
}

// TestJournaledPayloadIsSnapshot pins the property the transaction's
// adoption of the snapshot copy relies on: an inode-table block re-dirtied
// after Phase A (here from the PostSnapshot hook, before the commit) is
// journaled with the bytes the round snapshotted, and the re-dirty is kept
// for the next round.
func TestJournaledPayloadIsSnapshot(t *testing.T) {
	dev := blockdev.NewMem(16384)
	if _, err := mkfs.Format(dev, mkfs.Options{JournalBlocks: 256}); err != nil {
		t.Fatal(err)
	}
	var fs *FS
	var tblBlk uint32
	var armed bool
	var snapped, scribbled []byte
	fs, err := Mount(dev, Options{PostSnapshot: func() {
		if !armed {
			return
		}
		armed = false
		buf, err := fs.bc.Get(tblBlk)
		if err != nil {
			t.Error(err)
			return
		}
		defer fs.bc.Release(buf)
		snapped = bytes.Clone(buf.Data)
		// Rewrite every record's mtime, as a later writeInodeBack would.
		for off := 0; off < disklayout.BlockSize; off += disklayout.InodeSize {
			var ino disklayout.Inode
			if err := ino.Decode(buf.Data[off : off+disklayout.InodeSize]); err != nil {
				t.Error(err)
				return
			}
			ino.Mtime += 1000
			disklayout.PutInode(buf.Data[off:], &ino)
		}
		fs.bc.MarkDirtyMeta(buf)
		scribbled = bytes.Clone(buf.Data)
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Kill)

	if err := createWriteFsync(fs, "/f"); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	tblBlk, _ = fs.sb.InodeLoc(st.Ino)
	if err := fs.Truncate("/f", 3); err != nil { // dirties the inode
		t.Fatal(err)
	}
	armed = true
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if snapped == nil {
		t.Fatal("PostSnapshot hook never re-dirtied the table block")
	}
	journaled := func() []byte {
		t.Helper()
		crash := dev.Snapshot()
		if _, err := journal.Replay(crash, fs.sb); err != nil {
			t.Fatal(err)
		}
		b, err := crash.ReadBlock(tblBlk)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(journaled(), snapped) {
		t.Error("journal holds table-block bytes written after the round's snapshot")
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journaled(), scribbled) {
		t.Error("the next round did not journal the re-dirtied table block")
	}
}

// syncValidateSetup mounts an image with two files whose inodes share a
// table block, persists them, and returns the table block and the record
// offset of the second file, whose inode the next round does not touch.
// The first file's inode is dirtied so the round encodes into that block.
func syncValidateSetup(t *testing.T) (fs *FS, dev *blockdev.Mem, blk uint32, off int) {
	t.Helper()
	fs, dev = mountFsyncImage(t)
	for _, name := range []string{"/a", "/b"} {
		if err := createWriteFsync(fs, name); err != nil {
			t.Fatal(err)
		}
	}
	a, err := fs.Stat("/a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.Stat("/b")
	if err != nil {
		t.Fatal(err)
	}
	blkA, _ := fs.sb.InodeLoc(a.Ino)
	blk, off = fs.sb.InodeLoc(b.Ino)
	if blkA != blk {
		t.Fatalf("inodes %d and %d in table blocks %d and %d", a.Ino, b.Ino, blkA, blk)
	}
	if err := fs.Truncate("/a", 3); err != nil {
		t.Fatal(err)
	}
	return fs, dev, blk, off
}

// expectCorruptBeforeWrite runs a sync round and requires it to fail with
// ErrCorrupt without a single device write.
func expectCorruptBeforeWrite(t *testing.T, fs *FS, dev *blockdev.Mem) {
	t.Helper()
	before := dev.Stats().Snapshot()
	if err := fs.Sync(); !errors.Is(err, fserr.ErrCorrupt) {
		t.Fatalf("sync over a bad untouched record: err = %v, want ErrCorrupt", err)
	}
	after := dev.Stats().Snapshot()
	if after.Writes != before.Writes || after.WriteCalls != before.WriteCalls {
		t.Errorf("failed round wrote %d blocks in %d calls", after.Writes-before.Writes,
			after.WriteCalls-before.WriteCalls)
	}
}

// TestSyncValidateChecksUntouchedRecordCRC: a flipped byte in a record the
// round did not encode, in a table block it did, is caught by the record
// checksum before anything reaches the device.
func TestSyncValidateChecksUntouchedRecordCRC(t *testing.T) {
	fs, dev, blk, off := syncValidateSetup(t)
	buf, err := fs.bc.Get(blk)
	if err != nil {
		t.Fatal(err)
	}
	buf.Data[off+20] ^= 0xFF // atime: any byte breaks the CRC
	fs.bc.Release(buf)
	expectCorruptBeforeWrite(t, fs, dev)
}

// TestSyncValidateChecksUntouchedRecordPointers: an untouched neighbour
// re-encoded with a valid checksum but an out-of-range pointer is caught by
// the semantic re-check, not only the CRC.
func TestSyncValidateChecksUntouchedRecordPointers(t *testing.T) {
	fs, dev, blk, off := syncValidateSetup(t)
	buf, err := fs.bc.Get(blk)
	if err != nil {
		t.Fatal(err)
	}
	var ino disklayout.Inode
	if err := ino.Decode(buf.Data[off : off+disklayout.InodeSize]); err != nil {
		t.Fatal(err)
	}
	ino.Indirect = fs.sb.NumBlocks + 7
	disklayout.PutInode(buf.Data[off:], &ino)
	fs.bc.Release(buf)
	expectCorruptBeforeWrite(t, fs, dev)
}

// TestSyncValidateAllocs: checking a full table block of allocated records,
// bmap and extent-mapped alike, allocates nothing.
func TestSyncValidateAllocs(t *testing.T) {
	fs, _ := mountFsyncImage(t)
	data := make([]byte, disklayout.BlockSize)
	for i := 0; i < disklayout.InodesPerBlock; i++ {
		ino := disklayout.Inode{Mode: disklayout.MkMode(disklayout.TypeFile, 0o644), Nlink: 1, Size: disklayout.BlockSize}
		start := fs.sb.DataStart + uint32(i)
		if i%2 == 0 {
			ino.Direct[0] = start
		} else {
			ino.Flags |= disklayout.FlagExtents
			ino.SetInlineExtents([]disklayout.Extent{{FileOff: 0, Start: start, Len: 1}})
		}
		disklayout.PutInode(data[i*disklayout.InodeSize:], &ino)
	}
	meta := []cache.DirtySnap{{Blk: fs.sb.InodeTableStart, Meta: true, Data: data}}
	if err := fs.validateMetaForPersist(meta); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := fs.validateMetaForPersist(meta); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("validateMetaForPersist over a full table block: %v allocs per run, want 0", n)
	}
}
