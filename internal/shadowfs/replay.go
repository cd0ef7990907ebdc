package shadowfs

import (
	"fmt"

	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/handoff"
	"repro/internal/oplog"
)

// ReplayInput is everything the supervisor hands the shadow for one
// recovery: the trusted on-disk state is implicit in the device the shadow
// was constructed over (post journal replay), and the rest is the recorded
// gap between that state and what applications have observed.
type ReplayInput struct {
	// Ops is the recorded operation sequence since the last stable point,
	// with outcomes. Replayed in constrained mode.
	Ops []*oplog.Op
	// BaseFDs is the descriptor table at the stable point (fd -> inode).
	BaseFDs map[fsapi.FD]uint32
	// StartClock is the logical clock at the stable point.
	StartClock uint64
	// InFlight is the operation that faulted in the base, whose return value
	// the application has not yet seen; executed in autonomous mode. Nil if
	// the error arose outside any operation.
	InFlight *oplog.Op
	// StopOnDiscrepancy aborts recovery if constrained-mode cross-checking
	// disagrees with a recorded outcome ("whether or not to continue can be
	// configured", §3.2). When false, discrepancies are reported and the
	// shadow's own outcome wins.
	StopOnDiscrepancy bool
}

// ReplayResult is the shadow's output.
type ReplayResult struct {
	// Image is the sealed hand-off, ready for the base to absorb: the
	// reconstructed metadata and buffered data blocks, the final descriptor
	// table and the clock. Nil if the replay failed.
	Image *handoff.Image
	// InFlight is the in-flight op with its autonomous outcome filled, to be
	// returned to the application.
	InFlight *oplog.Op
	// Discrepancies are constrained-mode cross-check disagreements.
	Discrepancies []difftest.Discrepancy
	// OpsReplayed counts operations executed (skipped ones excluded).
	OpsReplayed int
	// OpsSkipped counts recorded operations omitted (error outcomes, syncs).
	OpsSkipped int
	// ChecksRun is the number of runtime checks the shadow executed.
	ChecksRun int64
	// OverlayBlocks is the number of blocks the recovery produced — the
	// shadow's memory footprint and the hand-off's payload size.
	OverlayBlocks int
}

// Replay executes the whole recovery procedure in one call: seed the
// descriptor table and the clock from the stable point, re-execute the
// recorded sequence in constrained mode, execute the in-flight operation in
// autonomous mode, run the final self-checks, and seal the hand-off image. It
// is the one replay entry point: the supervisor, the offline tools and the
// tests all call it. The result is never nil; on error it reports what was
// replayed before the failure.
func (s *Shadow) Replay(in ReplayInput) (*ReplayResult, error) {
	res := &ReplayResult{}
	err := s.replay(in, res)
	res.ChecksRun = s.checks
	res.OverlayBlocks = len(s.overlay)
	return res, err
}

func (s *Shadow) replay(in ReplayInput, res *ReplayResult) error {
	// Every inode in BaseFDs must exist on disk, be allocated, and be a
	// regular file: directories are never held open through this API, and
	// symlinks are not openable.
	s.clock.Set(in.StartClock)
	for fd, ino := range in.BaseFDs {
		rec, err := s.readAllocInode(ino)
		if err != nil {
			return fmt.Errorf("shadowfs: replay fd %d: %w", fd, err)
		}
		if err := s.assert(rec.IsFile(), "fd %d maps to non-file inode %d (type %d)",
			fd, ino, rec.Type()); err != nil {
			return err
		}
		if _, dup := s.fds[fd]; dup {
			return s.assert(false, "duplicate fd %d in stable-point table", fd)
		}
		s.fds[fd] = ino
		s.opens[ino]++
	}
	for _, rec := range in.Ops {
		if err := s.replayOne(rec, in.StopOnDiscrepancy, res); err != nil {
			return err
		}
	}
	var fl *oplog.Op
	if in.InFlight != nil {
		fl = in.InFlight.Clone()
		fl.Errno, fl.RetFD, fl.RetIno, fl.RetN = 0, 0, 0, 0
		if fl.Kind != oplog.KFsync && fl.Kind != oplog.KSync {
			_ = oplog.Apply(s, fl)
		}
		res.OpsReplayed++
	}
	if err := s.sanityCheckFinal(); err != nil {
		return err
	}
	res.Image = s.sealOverlay()
	res.InFlight = fl
	return nil
}

// replayOne replays one recorded operation in constrained mode: completed
// syncs are already on disk (skipped), error outcomes are omitted except
// short writes whose successfully written prefix is application-visible,
// and allocation/descriptor decisions are pinned to the recorded outcome so
// application-visible numbers are reproduced — validating usability instead
// of trusting blindly. With stop, a disagreement with the recorded outcome
// aborts the replay.
func (s *Shadow) replayOne(rec *oplog.Op, stop bool, res *ReplayResult) error {
	if rec.Kind == oplog.KFsync || rec.Kind == oplog.KSync {
		res.OpsSkipped++
		return nil
	}
	if rec.Errno != 0 {
		if rec.Kind == oplog.KWrite && rec.RetN > 0 {
			partial := rec.Clone()
			partial.Data = partial.Data[:rec.RetN]
			got := partial.Clone()
			got.Errno, got.RetN = 0, 0
			_ = oplog.Apply(s, got)
			if got.RetN != rec.RetN || got.Errno != 0 {
				res.Discrepancies = append(res.Discrepancies, difftest.Discrepancy{
					Op: rec, Field: "partial-write",
					Got:  fmt.Sprintf("n=%d errno=%d", got.RetN, got.Errno),
					Want: fmt.Sprintf("n=%d errno=0", rec.RetN),
				})
				if stop {
					return fmt.Errorf("shadowfs: constrained replay diverged at %s: %w", rec, fserr.ErrCorrupt)
				}
			}
			res.OpsReplayed++
			return nil
		}
		res.OpsSkipped++
		return nil
	}
	switch rec.Kind {
	case oplog.KCreate, oplog.KMkdir, oplog.KSymlink:
		s.wantIno = rec.RetIno
	}
	switch rec.Kind {
	case oplog.KCreate, oplog.KOpen:
		s.wantFD = rec.RetFD
		s.haveWantFD = true
	}
	got := rec.Clone()
	got.Errno, got.RetFD, got.RetIno, got.RetN = 0, 0, 0, 0
	_ = oplog.Apply(s, got)
	s.wantIno = 0
	s.haveWantFD = false
	res.OpsReplayed++
	if d := difftest.CompareOutcome(got, rec); len(d) > 0 {
		res.Discrepancies = append(res.Discrepancies, d...)
		if stop {
			return fmt.Errorf("shadowfs: constrained replay diverged at %s: %w", rec, fserr.ErrCorrupt)
		}
	}
	return nil
}

// sealOverlay packs every block the shadow holds, the descriptor table and
// the clock into one sealed hand-off image, deep-copying the block images —
// this is the single defensive copy across the isolation boundary; the base
// adopts the slices.
func (s *Shadow) sealOverlay() *handoff.Image {
	im := &handoff.Image{
		Blocks: make([]handoff.Block, 0, len(s.overlay)),
		FDs:    make([]handoff.FDEntry, 0, len(s.fds)),
		Clock:  s.clock.Now(),
	}
	for blk, data := range s.overlay {
		im.Blocks = append(im.Blocks, handoff.Block{Blk: blk, Meta: s.meta[blk], Data: append([]byte(nil), data...)})
	}
	for fd, ino := range s.fds {
		im.FDs = append(im.FDs, handoff.FDEntry{FD: fd, Ino: ino})
	}
	im.Seal()
	return im
}

// sanityCheckFinal re-validates every inode the recovery touched before the
// update leaves the shadow — the last line of the shadow's runtime checks.
func (s *Shadow) sanityCheckFinal() error {
	touched := map[uint32]bool{}
	tableStart, tableEnd := s.sb.InodeTableStart, s.sb.InodeTableStart+s.sb.InodeTableLen
	for blk := range s.overlay {
		if blk >= tableStart && blk < tableEnd {
			for i := 0; i < disklayout.InodesPerBlock; i++ {
				touched[(blk-tableStart)*disklayout.InodesPerBlock+uint32(i)] = true
			}
		}
	}
	for ino := range touched {
		if ino == 0 || ino >= s.sb.NumInodes {
			continue
		}
		if _, err := s.readInode(ino); err != nil {
			return fmt.Errorf("shadowfs: final check: %w", err)
		}
	}
	return nil
}
