package core

import (
	"path/filepath"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/fsapi"
	"repro/internal/mkfs"
	"repro/internal/oplog"
	"repro/internal/shadowfs"
)

// TestDumpLogOfflineReplay is the cmd/shadowreplay flow end to end: run a
// session on a file-backed image, sync (stable point), run more operations,
// dump the log, crash — then replay the dump offline against the image and
// apply the shadow's handoff, recovering the post-crash state.
func TestDumpLogOfflineReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.img")
	dev, err := blockdev.OpenFile(path, 2048, true)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 256, JournalBlocks: 32}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := fs.Create("/durable", 0o644)
	fs.WriteAt(fd, 0, []byte("synced"))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Post-stable-point activity that only the log knows about.
	fd2, _ := fs.Create("/buffered", 0o644)
	fs.WriteAt(fd2, 0, []byte("only in the log"))
	fs.Close(fd2)
	dump := fs.DumpLog()
	fs.Kill() // crash: buffered state is gone from disk

	// Offline: decode, replay on the shadow over the crashed image.
	ops, fds, clock, err := oplog.DecodeSequence(dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("dump carries no operations")
	}
	if _, ok := fds[fd]; !ok {
		t.Fatalf("stable-point fd table missing fd %d: %v", fd, fds)
	}
	if _, _, err := mkfs.Recover(dev); err != nil {
		t.Fatal(err)
	}
	sh, err := shadowfs.New(dev, shadowfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sh.Replay(shadowfs.ReplayInput{
		Ops: ops, BaseFDs: fds, StartClock: clock, StopOnDiscrepancy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Discrepancies) != 0 {
		t.Fatalf("discrepancies: %v", res.Discrepancies)
	}
	// Apply the handoff to the image, as shadowreplay -apply does.
	for _, c := range res.Chunks {
		for _, blk := range c.SortedBlocks() {
			if err := dev.WriteBlock(blk, c.Blocks[blk]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	// The recovered image now holds the buffered file.
	fs2, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Kill()
	rfd, err := fs2.Open("/buffered")
	if err != nil {
		t.Fatalf("buffered file not recovered: %v", err)
	}
	got, _ := fs2.ReadAt(rfd, 0, 100)
	if string(got) != "only in the log" {
		t.Errorf("recovered content = %q", got)
	}
	var _ fsapi.FD = rfd
}
