package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/fsck"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
	"repro/internal/workload"
)

// TestReplayApplyRecoversUnsyncedOps is the tool's whole flow: a supervised
// session on a file image syncs, keeps working, dumps its log and crashes;
// run with -apply must turn the crashed image into one that checks clean and
// holds exactly the tree the specification says the session built.
func TestReplayApplyRecoversUnsyncedOps(t *testing.T) {
	dir := t.TempDir()
	img, trace := filepath.Join(dir, "disk.img"), filepath.Join(dir, "trace.bin")
	dev, err := blockdev.OpenFile(img, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(dev, core.Config{NoTelemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	m := model.New(sb)
	ops := workload.Generate(workload.Config{Profile: workload.MetaHeavy, Seed: 9, NumOps: 300, Superblock: sb})
	// The profile fsyncs as it goes; the tail is what only the log knows.
	ops = append(ops,
		&oplog.Op{Kind: oplog.KMkdir, Path: "/unsynced", Perm: 0o755},
		&oplog.Op{Kind: oplog.KCreate, Path: "/unsynced/file", Perm: 0o644},
		&oplog.Op{Kind: oplog.KRename, Path: "/unsynced/file", Path2: "/unsynced/moved"},
		&oplog.Op{Kind: oplog.KSymlink, Path: "/unsynced/link", Path2: "moved"},
	)
	for _, op := range ops {
		_ = oplog.Apply(fs, op.Clone())
		_ = oplog.Apply(m, op.Clone())
	}
	dump := fs.DumpLog()
	if logged, _, _, err := oplog.DecodeSequence(dump); err != nil || len(logged) < 4 {
		t.Fatalf("dump carries %d operations (%v), want the unsynced tail", len(logged), err)
	}
	if err := os.WriteFile(trace, dump, 0o644); err != nil {
		t.Fatal(err)
	}
	fs.Kill() // crash: the buffered half never reached the image
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	if err := run(io.Discard, img, trace, true, true); err != nil {
		t.Fatalf("shadowreplay -apply -stop: %v", err)
	}

	dev, err = blockdev.OpenFile(img, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if rep := fsck.Check(dev); !rep.Clean() {
		t.Fatalf("recovered image does not check clean: %v", rep.Err())
	}
	recovered, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Kill()
	got, err := difftest.DumpState(recovered)
	if err != nil {
		t.Fatal(err)
	}
	want, err := difftest.DumpState(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 10 {
		t.Fatalf("specification tree has only %d entries; the workload built nothing", len(want))
	}
	for _, d := range difftest.CompareStates(got, want) {
		t.Errorf("recovered tree: %s", d)
	}
}
