package basefs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
	runs := len(new(roundScratch).runsOf(len(blks), func(k int) uint32 { return blks[k] }, func(int) []byte { return nil }))
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
	return syncValidateSetupAt(t, false)
}

// syncValidateSetupAt is syncValidateSetup, with the table block's committed
// copy written home by a checkpoint first when checkpointed is set, so the
// next round finds it in fs.validated instead of fs.unstable.
func syncValidateSetupAt(t *testing.T, checkpointed bool) (fs *FS, dev *blockdev.Mem, blk uint32, off int) {
	t.Helper()
	fs, dev = mountFsyncImage(t)
	for _, name := range []string{"/a", "/b"} {
		if err := createWriteFsync(fs, name); err != nil {
			t.Fatal(err)
		}
	}
	if checkpointed {
		if err := fs.Checkpoint(); err != nil {
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
	if _, ok := fs.validated[blk]; ok != checkpointed || (fs.unstable[blk] == nil) != checkpointed {
		t.Fatalf("table block %d: in validated %v, in unstable %v, want checkpointed %v",
			blk, ok, fs.unstable[blk] != nil, checkpointed)
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
// checksum before anything reaches the device, whether the block's last
// committed copy is still in the journal or a checkpoint wrote it home.
func TestSyncValidateChecksUntouchedRecordCRC(t *testing.T) {
	for _, checkpointed := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpointed=%v", checkpointed), func(t *testing.T) {
			fs, dev, blk, off := syncValidateSetupAt(t, checkpointed)
			buf, err := fs.bc.Get(blk)
			if err != nil {
				t.Fatal(err)
			}
			buf.Data[off+20] ^= 0xFF // atime: any byte breaks the CRC
			fs.bc.Release(buf)
			expectCorruptBeforeWrite(t, fs, dev)
		})
	}
}

// TestSyncValidateChecksUntouchedRecordPointers: an untouched neighbour
// re-encoded with a valid checksum but an out-of-range pointer is caught by
// the semantic re-check, not only the CRC, before and after a checkpoint.
func TestSyncValidateChecksUntouchedRecordPointers(t *testing.T) {
	for _, checkpointed := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpointed=%v", checkpointed), func(t *testing.T) {
			fs, dev, blk, off := syncValidateSetupAt(t, checkpointed)
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
		})
	}
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

// validateMetaFull is the reference sync-validate pass: every record of
// every dirty table block is decoded and pointer-checked, whatever the
// block's committed copy holds. validateMetaForPersist must agree with it.
func validateMetaFull(sb *disklayout.Superblock, meta []cache.DirtySnap) error {
	tableStart := sb.InodeTableStart
	tableEnd := tableStart + sb.InodeTableLen
	var ino disklayout.Inode
	for _, b := range meta {
		if b.Blk >= tableStart && b.Blk < tableEnd {
			for i := 0; i < disklayout.InodesPerBlock; i++ {
				rec := b.Data[i*disklayout.InodeSize : (i+1)*disklayout.InodeSize]
				if err := ino.Decode(rec); err != nil {
					return fmt.Errorf("sync-validate table block %d record %d: %w", b.Blk, i, err)
				}
				if !ino.IsFree() {
					if err := ino.ValidatePointers(sb); err != nil {
						return fmt.Errorf("sync-validate table block %d record %d: %w", b.Blk, i, err)
					}
				}
			}
		}
	}
	return nil
}

// TestSyncValidateMatchesFullCheck: skipping the records a table block
// shares with its committed copy never changes the verdict. Seeded
// mutations of a block whose committed copy is in fs.unstable (byte flips,
// valid-CRC re-encodes with a bad pointer or a harmless field, records
// reverted to their committed bytes), of a block whose copy a checkpoint
// moved to fs.validated, and of a block with no committed copy must get the
// same answer from validateMetaForPersist and the full pass.
func TestSyncValidateMatchesFullCheck(t *testing.T) {
	fs, _, blk, _ := syncValidateSetup(t)
	committed := fs.unstable[blk]
	if committed == nil {
		t.Fatalf("table block %d has no committed copy", blk)
	}
	rec := func(b []byte, i int) []byte {
		return b[i*disklayout.InodeSize : (i+1)*disklayout.InodeSize]
	}
	reencode := func(r []byte, edit func(*disklayout.Inode)) {
		var ino disklayout.Inode
		if err := ino.Decode(r); err != nil {
			return // a flipped record stays flipped
		}
		edit(&ino)
		disklayout.PutInode(r, &ino)
	}
	var agreed [2]int // verdicts nil, ErrCorrupt
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := bytes.Clone(committed)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r := rec(data, rng.Intn(disklayout.InodesPerBlock))
			switch rng.Intn(4) {
			case 0: // byte flip
				r[rng.Intn(disklayout.InodeSize)] ^= byte(1 + rng.Intn(255))
			case 1: // valid CRC, pointer outside the data region
				reencode(r, func(ino *disklayout.Inode) {
					ino.Direct[rng.Intn(disklayout.NumDirect)] = fs.sb.NumBlocks + uint32(rng.Intn(64))
				})
			case 2: // valid CRC, harmless field
				reencode(r, func(ino *disklayout.Inode) { ino.Mtime += uint64(1 + rng.Intn(1000)) })
			case 3: // revert a record to its committed bytes
				i := rng.Intn(disklayout.InodesPerBlock)
				copy(rec(data, i), rec(committed, i))
			}
		}
		for _, class := range []string{"committed", "checkpointed", "none"} {
			if class != "committed" {
				delete(fs.unstable, blk)
			}
			if class == "checkpointed" {
				fs.validated[blk] = committed
			}
			meta := []cache.DirtySnap{{Blk: blk, Meta: true, Data: data}}
			got, want := fs.validateMetaForPersist(meta), validateMetaFull(fs.sb, meta)
			delete(fs.validated, blk)
			fs.unstable[blk] = committed
			if (got == nil) != (want == nil) || (got != nil && !errors.Is(got, fserr.ErrCorrupt)) {
				t.Fatalf("seed %d, %s block: got %v, full pass %v", seed, class, got, want)
			}
			if got == nil {
				agreed[0]++
			} else {
				agreed[1]++
			}
		}
	}
	if agreed[0] == 0 || agreed[1] == 0 {
		t.Fatalf("verdicts nil/ErrCorrupt: %d/%d, want both outcomes exercised", agreed[0], agreed[1])
	}
}

// TestUnstableMatchesJournalAcrossRounds: across hundreds of rounds on a
// 64-block journal (so checkpoints recycle copies often), every committed
// copy in fs.unstable holds exactly what a crash replay would put home, and
// no two held copies (fs.unstable entries and spare blocks) share memory.
func TestUnstableMatchesJournalAcrossRounds(t *testing.T) {
	fs, dev := newFS(t)
	payload := bytes.Repeat([]byte("recycled "), 57)
	maxSpare := 0
	for round := 0; round < 320; round++ {
		name := fmt.Sprintf("/f%d", round%16)
		fd, err := fs.Open(name)
		if errors.Is(err, fserr.ErrNotExist) {
			fd, err = fs.Create(name, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		st, err := fs.Fstat(fd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(fd, st.Size, payload[:1+round%len(payload)]); err != nil {
			t.Fatal(err)
		}
		if err := fs.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(fd); err != nil {
			t.Fatal(err)
		}
		if round%5 == 4 {
			if err := fs.Unlink(fmt.Sprintf("/f%d", (round+7)%16)); err != nil && !errors.Is(err, fserr.ErrNotExist) {
				t.Fatal(err)
			}
		}

		crash := dev.Snapshot()
		if _, err := journal.Replay(crash, fs.sb); err != nil {
			t.Fatal(err)
		}
		owner := map[*byte]string{}
		hold := func(b []byte, who string) {
			if len(b) != disklayout.BlockSize {
				t.Fatalf("round %d: %s is %d bytes", round, who, len(b))
			}
			if prev, ok := owner[&b[0]]; ok {
				t.Fatalf("round %d: %s shares memory with %s", round, who, prev)
			}
			owner[&b[0]] = who
		}
		for blk, b := range fs.unstable {
			hold(b, fmt.Sprintf("unstable[%d]", blk))
			home, err := crash.ReadBlock(blk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(home, b) {
				t.Fatalf("round %d: unstable[%d] differs from the replayed journal", round, blk)
			}
		}
		for blk, b := range fs.validated {
			hold(b, fmt.Sprintf("validated[%d]", blk))
		}
		_, spares, bound := fs.bc.Holdings()
		for i, b := range spares {
			hold(b, fmt.Sprintf("spare[%d]", i))
		}
		if n := len(spares); n > bound {
			t.Fatalf("round %d: %d spare blocks, bound %d", round, n, bound)
		} else if n > maxSpare {
			maxSpare = n
		}
	}
	if maxSpare == 0 {
		t.Fatal("no block copy was ever recycled")
	}
}

// TestSyncValidateImagesBoundedByTable: fs.validated holds one image per
// inode-table block at most. Files in every table block are created and
// checkpointed, so every block's image moves there, each equal to what the
// checkpoint wrote home; a block a later round commits leaves the set, so
// no block is in fs.unstable and fs.validated at once; and a fresh mount
// starts with the set empty.
func TestSyncValidateImagesBoundedByTable(t *testing.T) {
	fs, dev := newFS(t)
	n := int(fs.sb.InodeTableLen) * disklayout.InodesPerBlock
	for i := 2; i < n; i++ { // inode 0 is reserved, 1 is the root
		fd, err := fs.Create(fmt.Sprintf("/f%d", i), 0o644)
		if err != nil {
			t.Fatalf("create %d of %d: %v", i-1, n-2, err)
		}
		if err := fs.Close(fd); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(fs.validated), int(fs.sb.InodeTableLen); got != want {
		t.Fatalf("after touching every table block and a checkpoint: %d validated images, want %d", got, want)
	}
	for blk, b := range fs.validated {
		if !fs.isTableBlock(blk) {
			t.Fatalf("validated image of block %d, outside the inode table", blk)
		}
		home, err := dev.ReadBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(home, b) {
			t.Fatalf("validated image of block %d differs from its home copy", blk)
		}
	}
	if err := fs.Truncate("/f2", 9); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for blk := range fs.unstable {
		if _, ok := fs.validated[blk]; ok {
			t.Fatalf("block %d is in fs.unstable and fs.validated", blk)
		}
	}
	if len(fs.validated) >= int(fs.sb.InodeTableLen) {
		t.Fatalf("%d validated images after a commit to the table, want fewer than %d",
			len(fs.validated), fs.sb.InodeTableLen)
	}
	fs.Kill()
	fresh, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Kill()
	if len(fresh.validated) != 0 {
		t.Fatalf("a fresh mount holds %d validated images", len(fresh.validated))
	}
}

// TestSyncRoundAllocs: in steady state a sync round copies into recycled
// blocks, encodes the clock into one and keeps its bookkeeping in scratch
// it reuses, so an fsync round on a bare mount allocates less than one
// block, in at most two allocations. The round itself allocates nothing;
// what is left is the cache's and the journal's own, such as a map entry.
func TestSyncRoundAllocs(t *testing.T) {
	fs, _ := newFS(t)
	fd, err := fs.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0x5A}, disklayout.BlockSize)
	const warm, rounds = 64, 64
	var total, count uint64
	for i := 0; i < warm+rounds; i++ {
		// The rewrite dirties the placed data block and the inode, so each
		// round writes one data block home and commits a table block and
		// the superblock's clock.
		block[0] = byte(i)
		if _, err := fs.WriteAt(fd, 0, block); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := fs.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= warm {
			total += after.TotalAlloc - before.TotalAlloc
			count += after.Mallocs - before.Mallocs
		}
	}
	per, perCount := total/rounds, float64(count)/rounds
	t.Logf("steady-state fsync round allocates %d bytes in %.2f allocations", per, perCount)
	if per >= disklayout.BlockSize {
		t.Errorf("steady-state fsync round allocates %d bytes, want under %d", per, disklayout.BlockSize)
	}
	if perCount >= 0.5 {
		t.Errorf("steady-state fsync round makes %.2f allocations, want under 0.5", perCount)
	}
}
