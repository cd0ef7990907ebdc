package shadowfs

import (
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
	"repro/internal/workload"
)

func freshShadow(t *testing.T, blocks uint32) (*Shadow, *blockdev.Mem, *disklayout.Superblock) {
	t.Helper()
	dev := blockdev.NewMem(blocks)
	sb, err := mkfs.Format(dev, mkfs.Options{NumInodes: 1024, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, dev, sb
}

// TestShadowMatchesModelAcrossWorkloads is the shadow's verification
// obligation in this reproduction: for every workload profile, the shadow's
// API outcomes and final state must equal the executable specification's.
func TestShadowMatchesModelAcrossWorkloads(t *testing.T) {
	for _, profile := range workload.Profiles() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(profile.String()+"-"+string(rune('0'+seed)), func(t *testing.T) {
				s, _, sb := freshShadow(t, 16384)
				trace := workload.Generate(workload.Config{
					Profile: profile, Seed: seed, NumOps: 800, Superblock: sb,
				})
				disc, err := difftest.VerifyEquivalence(s, model.New(sb), trace)
				if err != nil {
					t.Fatalf("equivalence run failed: %v", err)
				}
				for i, d := range disc {
					if i >= 10 {
						t.Errorf("... and %d more", len(disc)-10)
						break
					}
					t.Errorf("discrepancy: %s", d)
				}
			})
		}
	}
}

func TestShadowMatchesModelUnderENOSPC(t *testing.T) {
	dev := blockdev.NewMem(400)
	sb, err := mkfs.Format(dev, mkfs.Options{NumInodes: 64, JournalBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Generate(workload.Config{
		Profile: workload.DataHeavy, Seed: 99, NumOps: 600, Superblock: sb,
	})
	disc, err := difftest.VerifyEquivalence(s, model.New(sb), trace)
	if err != nil {
		t.Fatalf("equivalence run failed: %v", err)
	}
	for i, d := range disc {
		if i >= 10 {
			break
		}
		t.Errorf("discrepancy: %s", d)
	}
}

// TestShadowNeverWritesDevice enforces the defining property: however much
// work the shadow does, device write and flush counts stay zero.
func TestShadowNeverWritesDevice(t *testing.T) {
	s, dev, sb := freshShadow(t, 16384)
	before := dev.Stats().Snapshot()
	trace := workload.Generate(workload.Config{
		Profile: workload.Soup, Seed: 5, NumOps: 1000, Superblock: sb,
	})
	for _, op := range trace {
		o := op.Clone()
		o.Errno, o.RetFD, o.RetIno, o.RetN = 0, 0, 0, 0
		_ = oplog.Apply(s, o)
	}
	after := dev.Stats().Snapshot()
	if after.Writes != before.Writes || after.Flushes != before.Flushes {
		t.Fatalf("shadow wrote to the device: writes %d -> %d, flushes %d -> %d",
			before.Writes, after.Writes, before.Flushes, after.Flushes)
	}
	if s.ChecksRun() == 0 {
		t.Error("shadow ran zero checks over a 1000-op workload")
	}
}

func TestShadowRejectsCorruptImage(t *testing.T) {
	_, dev, sb := freshShadow(t, 4096)
	// Corrupt the root inode's pointer area and re-checksum, a crafted-image
	// attack fsck must catch before the shadow executes anything.
	blk, off := sb.InodeLoc(sb.RootIno)
	b, _ := dev.ReadBlock(blk)
	rec, err := disklayout.DecodeInode(b[off : off+disklayout.InodeSize])
	if err != nil {
		t.Fatal(err)
	}
	rec.Direct[0] = 1 // metadata block as dir data
	rec.Size = disklayout.BlockSize
	disklayout.PutInode(b[off:], rec)
	if err := dev.WriteBlock(blk, b); err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, Options{}); !errors.Is(err, fserr.ErrCorrupt) {
		t.Fatalf("New on crafted image: %v, want ErrCorrupt", err)
	}
}

func TestShadowDetectsBitflipDuringExecution(t *testing.T) {
	s, dev, _ := freshShadow(t, 4096)
	fd, err := s.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt(fd, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in an inode table block the shadow has NOT overlaid, then
	// force a fresh read of it: the per-read checksum must catch it.
	s2, err := New(dev, Options{SkipFsck: true})
	if err != nil {
		t.Fatal(err)
	}
	sb := s2.sb
	blk, off := sb.InodeLoc(sb.RootIno)
	if err := dev.CorruptBlock(blk, off+40, 0x10); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Stat("/"); !errors.Is(err, fserr.ErrCorrupt) {
		t.Fatalf("Stat over corrupted inode table: %v, want ErrCorrupt", err)
	}
}

// replayFixture builds a recorded sequence by executing a workload on the
// model over a fresh image's geometry, then has a shadow replay it in
// constrained mode.
func TestShadowReplayConstrainedReproducesState(t *testing.T) {
	s, _, sb := freshShadow(t, 16384)
	m := model.New(sb)
	trace := workload.Generate(workload.Config{
		Profile: workload.Soup, Seed: 21, NumOps: 500, Superblock: sb,
	})
	// The trace's outcomes came from the generator's own model; re-apply to
	// m so we have a final-state oracle.
	recorded := make([]*oplog.Op, 0, len(trace))
	for _, op := range trace {
		o := op.Clone()
		o.Errno, o.RetFD, o.RetIno, o.RetN = 0, 0, 0, 0
		_ = oplog.Apply(m, o)
		if o.Kind.Mutating() {
			recorded = append(recorded, o)
		}
	}
	res, err := s.Replay(ReplayInput{
		Ops:               recorded,
		BaseFDs:           map[fsapi.FD]uint32{},
		StartClock:        0,
		StopOnDiscrepancy: true,
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(res.Discrepancies) != 0 {
		for _, d := range res.Discrepancies {
			t.Errorf("discrepancy: %s", d)
		}
	}
	if err := res.Image.Verify(s.sb); err != nil {
		t.Fatal(err)
	}
	// The shadow's post-replay state must equal the model's final state.
	gotState, err := difftest.DumpState(s)
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := difftest.DumpState(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range difftest.CompareStates(gotState, wantState) {
		if i >= 10 {
			break
		}
		t.Errorf("state discrepancy: %s", d)
	}
	// Descriptor tables must agree too.
	wantFDs := m.OpenFDs()
	gotFDs := res.Image.FDs
	if len(wantFDs) != len(gotFDs) {
		t.Fatalf("fd tables differ: shadow %d, model %d", len(gotFDs), len(wantFDs))
	}
	for i, fd := range wantFDs {
		if gotFDs[i].FD != fd {
			t.Errorf("fd[%d] = %d, want %d", i, gotFDs[i].FD, fd)
		}
	}
}

func TestShadowReplaySkipsFailedOpsButAppliesShortWrites(t *testing.T) {
	s, _, _ := freshShadow(t, 16384)
	recorded := []*oplog.Op{
		{Kind: oplog.KCreate, Path: "/a", Perm: 0o644, RetFD: 0, RetIno: 2},
		// A failed create (EEXIST in the base) must be skipped, not re-run.
		{Kind: oplog.KCreate, Path: "/a", Perm: 0o644, Errno: fserr.Errno(fserr.ErrExist)},
		// A short write: only the recorded prefix is applied.
		{Kind: oplog.KWrite, FD: 0, Off: 0, Data: []byte("0123456789"), RetN: 4,
			Errno: fserr.Errno(fserr.ErrNoSpace)},
	}
	res, err := s.Replay(ReplayInput{Ops: recorded, BaseFDs: map[fsapi.FD]uint32{}, StopOnDiscrepancy: true})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.OpsSkipped != 1 {
		t.Errorf("OpsSkipped = %d, want 1", res.OpsSkipped)
	}
	got, err := s.ReadAt(0, 0, 100)
	if err != nil || string(got) != "0123" {
		t.Errorf("after short-write replay: (%q, %v), want 0123", got, err)
	}
}

func TestShadowReplayValidatesStableFDs(t *testing.T) {
	s, _, _ := freshShadow(t, 4096)
	// fd pointing at an unallocated inode must be rejected.
	_, err := s.Replay(ReplayInput{BaseFDs: map[fsapi.FD]uint32{3: 100}})
	if !errors.Is(err, fserr.ErrCorrupt) {
		t.Fatalf("Replay with bogus fd table: %v, want ErrCorrupt", err)
	}
}

func TestShadowReplayRejectsUnusableRecordedIno(t *testing.T) {
	s, _, _ := freshShadow(t, 4096)
	recorded := []*oplog.Op{
		// Claims the root inode's number for a new file: unusable.
		{Kind: oplog.KCreate, Path: "/x", Perm: 0o644, RetFD: 0, RetIno: disklayout.RootIno},
	}
	res, err := s.Replay(ReplayInput{Ops: recorded, BaseFDs: map[fsapi.FD]uint32{}, StopOnDiscrepancy: true})
	if err == nil {
		t.Fatalf("replay accepted an already-allocated recorded inode; discrepancies: %v", res.Discrepancies)
	}
}

func TestShadowOverlayBecomesStream(t *testing.T) {
	s, _, _ := freshShadow(t, 4096)
	fd, err := s.Create("/file", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt(fd, 0, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Replay(ReplayInput{StartClock: s.Clock()})
	if err != nil {
		t.Fatal(err)
	}
	im := res.Image
	if err := im.Verify(s.sb); err != nil {
		t.Fatal(err)
	}
	if len(im.FDs) != 1 || im.FDs[0].FD != fd {
		t.Errorf("image fds = %+v", im.FDs)
	}
	// At least one metadata block (inode table / bitmap) and one data block.
	meta, data := 0, 0
	for _, b := range im.Blocks {
		if b.Meta {
			meta++
		} else {
			data++
		}
	}
	if meta == 0 || data == 0 {
		t.Errorf("image block mix: %d meta, %d data", meta, data)
	}
}

func TestShadowChecksCountGrows(t *testing.T) {
	s, _, _ := freshShadow(t, 4096)
	before := s.ChecksRun()
	fd, _ := s.Create("/c", 0o644)
	s.WriteAt(fd, 0, []byte("data"))
	s.Close(fd)
	if s.ChecksRun() <= before {
		t.Error("runtime checks did not increase across operations")
	}
}
