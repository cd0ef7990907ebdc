package shadowfs

import (
	"errors"
	"testing"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/oplog"
)

// Robustness tests for the shadow's constrained-mode validation: recorded
// sequences that lie must be rejected or reported, never silently applied.

func TestReplayRejectsRecordedFDCollision(t *testing.T) {
	s, _, _ := freshShadow(t, 4096)
	recorded := []*oplog.Op{
		{Kind: oplog.KCreate, Path: "/a", Perm: 0o644, RetFD: 0, RetIno: 2},
		// A second create claiming the same descriptor number: impossible.
		{Kind: oplog.KCreate, Path: "/b", Perm: 0o644, RetFD: 0, RetIno: 3},
	}
	res, err := s.Replay(ReplayInput{Ops: recorded, BaseFDs: map[fsapi.FD]uint32{}, StopOnDiscrepancy: true})
	if err == nil && len(res.Discrepancies) == 0 {
		t.Fatal("duplicate recorded fd accepted silently")
	}
}

func TestReplayRejectsDuplicateStableFD(t *testing.T) {
	s, _, _ := freshShadow(t, 4096)
	// Two entries for fd 3 cannot arrive via the map type; instead check the
	// ino-validation path with inode 0.
	_, err := s.Replay(ReplayInput{BaseFDs: map[fsapi.FD]uint32{3: 0}})
	if !errors.Is(err, fserr.ErrCorrupt) {
		t.Fatalf("fd to inode 0: %v", err)
	}
}

func TestReplayCountsOverlay(t *testing.T) {
	s, _, _ := freshShadow(t, 4096)
	recorded := []*oplog.Op{
		{Kind: oplog.KCreate, Path: "/f", Perm: 0o644, RetFD: 0, RetIno: 2},
		{Kind: oplog.KWrite, FD: 0, Off: 0, Data: make([]byte, 2*disklayout.BlockSize), RetN: 2 * disklayout.BlockSize},
	}
	res, err := s.Replay(ReplayInput{Ops: recorded, BaseFDs: map[fsapi.FD]uint32{}, StopOnDiscrepancy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != 1 {
		t.Fatalf("one-shot replay produced %d chunks, want 1", len(res.Chunks))
	}
	if res.OverlayBlocks != len(res.Chunks[0].Blocks) || res.OverlayBlocks < 4 {
		// ≥ 2 data + inode table + bitmaps + root dir block
		t.Errorf("OverlayBlocks = %d (chunk has %d)", res.OverlayBlocks, len(res.Chunks[0].Blocks))
	}
}

func TestShadowRejectsWriteToFreeBlockRegression(t *testing.T) {
	// freeBlock on an already-free block must be caught (double free).
	s, _, sb := freshShadow(t, 4096)
	if err := s.freeBlock(sb.DataStart + 5); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("double free: %v", err)
	}
	// Freeing a metadata block is equally forbidden.
	if err := s.freeBlock(1); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("metadata free: %v", err)
	}
}

func TestShadowFsyncValidatesDescriptor(t *testing.T) {
	s, _, _ := freshShadow(t, 4096)
	if err := s.Fsync(9); !errors.Is(err, fserr.ErrBadFD) {
		t.Errorf("fsync bad fd: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("sync: %v", err)
	}
}

func TestShadowSequentialFDPinning(t *testing.T) {
	// Constrained fd pinning: the recorded fd wins even when lower numbers
	// are free, because the application saw that number.
	s, _, _ := freshShadow(t, 4096)
	recorded := []*oplog.Op{
		{Kind: oplog.KCreate, Path: "/x", Perm: 0o644, RetFD: 5, RetIno: 2},
	}
	res, err := s.Replay(ReplayInput{Ops: recorded, BaseFDs: map[fsapi.FD]uint32{}, StopOnDiscrepancy: true})
	if err != nil {
		t.Fatal(err)
	}
	if fds := res.Manifest.FDs; len(fds) != 1 || fds[0].FD != 5 {
		t.Errorf("fd table = %+v, want pinned fd 5", fds)
	}
}
