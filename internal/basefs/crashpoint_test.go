package basefs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/fsck"
	"repro/internal/mkfs"
)

// TestEveryCrashPointDuringSyncIsRecoverable is the systematic crash-
// consistency harness: the device snapshots itself after every single block
// write during a sync, and every snapshot must (a) journal-replay without
// error, (b) pass fsck, and (c) still contain, intact, every file a
// *previous* sync made durable. This covers every possible crash point in
// the ordered-data + journaled-metadata protocol: mid data write-back, mid
// journal append, between commit record and checkpoint, mid checkpoint, and
// before the superblock clock update.
func TestEveryCrashPointDuringSyncIsRecoverable(t *testing.T) {
	dev := blockdev.NewMem(2048)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 256, JournalBlocks: 32}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()

	durable := map[string][]byte{} // files guaranteed by completed syncs
	var snapMu sync.Mutex
	var snaps []*blockdev.Mem
	capture := false
	dev.SetWriteHook(func(uint32) {
		// The hook fires on whichever goroutine issues the write.
		snapMu.Lock()
		if capture {
			snaps = append(snaps, dev.Snapshot())
		}
		snapMu.Unlock()
	})
	setCapture := func(on bool) {
		snapMu.Lock()
		capture = on
		snapMu.Unlock()
	}

	for round := 0; round < 4; round++ {
		// Mutate: new files, an overwrite, an unlink, a directory.
		name := fmt.Sprintf("/r%d", round)
		if err := fs.Mkdir(name, 0o755); err != nil {
			t.Fatal(err)
		}
		content := bytes.Repeat([]byte{byte('A' + round)}, 700*(round+1))
		fd, err := fs.Create(name+"/data", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(fd, 0, content); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(fd); err != nil {
			t.Fatal(err)
		}
		fd, err = fs.Create(name+"/extra", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		fs.WriteAt(fd, 0, []byte("extra"))
		fs.Close(fd)
		if round > 1 {
			// Churn: remove the extra file two rounds back so syncs also
			// carry deallocations.
			if err := fs.Unlink(fmt.Sprintf("/r%d/extra", round-2)); err != nil {
				t.Fatal(err)
			}
		}
		// Sync with per-write snapshots on.
		snapMu.Lock()
		snaps = snaps[:0]
		snapMu.Unlock()
		setCapture(true)
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		setCapture(false)
		durable[name+"/data"] = content

		if len(snaps) == 0 {
			t.Fatalf("round %d: sync issued no writes", round)
		}
		for si, snap := range snaps {
			if _, _, err := mkfs.Recover(snap); err != nil {
				t.Fatalf("round %d snap %d/%d: replay: %v", round, si, len(snaps), err)
			}
			rep := fsck.Check(snap)
			if !rep.Clean() {
				for i, p := range rep.Problems {
					if i > 3 {
						break
					}
					t.Errorf("round %d snap %d: %s", round, si, p)
				}
				t.Fatalf("round %d snap %d/%d: structurally corrupt crash point", round, si, len(snaps))
			}
			// Previously durable files must be present and intact. (Files of
			// the current round may or may not be, depending on where the
			// crash landed — both are legal.)
			check, err := Mount(snap, Options{})
			if err != nil {
				t.Fatalf("round %d snap %d: mount: %v", round, si, err)
			}
			for path, want := range durable {
				if path == name+"/data" {
					continue // current round: either outcome is legal
				}
				cfd, err := check.Open(path)
				if err != nil {
					t.Fatalf("round %d snap %d: durable %s lost: %v", round, si, path, err)
				}
				got, err := check.ReadAt(cfd, 0, len(want)+10)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("round %d snap %d: durable %s corrupted", round, si, path)
				}
				check.Close(cfd)
			}
			check.Kill()
		}
	}
}

// TestCrashPointsDuringDeferredCheckpoint exercises the lazy-checkpoint
// pipeline specifically: several fsyncs accumulate committed transactions in
// the journal with nothing written home, and then a checkpoint retires the
// whole chain. A crash at ANY block write — while the chain is live, mid
// home write-back, or mid tail advance — must replay to an image that is
// structurally clean and still holds every fsynced file.
func TestCrashPointsDuringDeferredCheckpoint(t *testing.T) {
	dev := blockdev.NewMem(2048)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 256, JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()

	var snapMu sync.Mutex
	var snaps []*blockdev.Mem
	capture := false
	dev.SetWriteHook(func(uint32) {
		snapMu.Lock()
		if capture {
			snaps = append(snaps, dev.Snapshot())
		}
		snapMu.Unlock()
	})
	setCapture := func(on bool) {
		snapMu.Lock()
		capture = on
		snapMu.Unlock()
	}

	// Build up >=4 committed, un-checkpointed transactions, capturing every
	// crash point along the way. bound[i] is the snapshot count at the moment
	// file i's fsync returned: snapshots at or past it must contain file i.
	durable := map[string][]byte{}
	names := make([]string, 4)
	contents := make([][]byte, 4)
	bound := make([]int, 4)
	setCapture(true)
	for i := 0; i < 4; i++ {
		names[i] = fmt.Sprintf("/f%d", i)
		contents[i] = bytes.Repeat([]byte{byte('a' + i)}, 600+i*400)
		fd, err := fs.Create(names[i], 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(fd, 0, contents[i]); err != nil {
			t.Fatal(err)
		}
		if err := fs.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(fd); err != nil {
			t.Fatal(err)
		}
		snapMu.Lock()
		bound[i] = len(snaps)
		snapMu.Unlock()
		durable[names[i]] = contents[i]
	}
	setCapture(false)
	if live := fs.jnl.LiveTxs(); live < 4 {
		t.Fatalf("deferred checkpointing not deferring: %d live txs, want >= 4", live)
	}
	preCkpt := len(snaps)

	// Now retire the chain, still capturing per-write crash points.
	setCapture(true)
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	setCapture(false)
	if fs.jnl.LiveTxs() != 0 {
		t.Fatalf("checkpoint left %d live txs", fs.jnl.LiveTxs())
	}
	if len(snaps) == preCkpt {
		t.Fatal("checkpoint issued no writes")
	}

	verify := func(si int, snap *blockdev.Mem, expect map[string][]byte) {
		t.Helper()
		if _, _, err := mkfs.Recover(snap); err != nil {
			t.Fatalf("snap %d: replay: %v", si, err)
		}
		if rep := fsck.Check(snap); !rep.Clean() {
			t.Fatalf("snap %d: corrupt crash point: %v", si, rep.Problems[0])
		}
		check, err := Mount(snap, Options{})
		if err != nil {
			t.Fatalf("snap %d: mount: %v", si, err)
		}
		defer check.Kill()
		for path, want := range expect {
			cfd, err := check.Open(path)
			if err != nil {
				t.Fatalf("snap %d: durable %s lost: %v", si, path, err)
			}
			got, err := check.ReadAt(cfd, 0, len(want)+10)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("snap %d: durable %s corrupted", si, path)
			}
			check.Close(cfd)
		}
	}

	// A crash point taken after fsync i returned must preserve files 0..i;
	// for points mid-fsync, the file's durability is undetermined and only
	// structural integrity is required. Crash points inside the checkpoint
	// guarantee everything.
	for si, snap := range snaps[:preCkpt] {
		expect := map[string][]byte{}
		for i := 0; i < 4; i++ {
			if bound[i] <= si {
				expect[names[i]] = contents[i]
			}
		}
		verify(si, snap, expect)
	}
	for si, snap := range snaps[preCkpt:] {
		verify(preCkpt+si, snap, durable) // all four files must survive
	}

	// And the live image after checkpoint holds everything too.
	final := dev.Snapshot()
	verify(len(snaps), final, durable)
}
