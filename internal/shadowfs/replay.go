package shadowfs

import (
	"fmt"

	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
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
	// Chunks and Manifest are the sealed hand-off stream, ready for the base
	// to absorb: the reconstructed metadata and buffered data blocks, then
	// the final descriptor table and the clock. A one-shot replay is a
	// stream of at most one chunk.
	Chunks   []*handoff.Chunk
	Manifest *handoff.Manifest
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
// descriptor table from the stable point, re-execute the recorded sequence
// in constrained mode, execute the in-flight operation in autonomous mode,
// and seal the overlay as a one-chunk stream. It is the convenience wrapper
// over Replayer for tools and tests; the supervisor drives the Replayer
// directly, in batches.
func (s *Shadow) Replay(in ReplayInput) (*ReplayResult, error) {
	r, err := NewReplayer(s, in.BaseFDs, in.StartClock, in.StopOnDiscrepancy)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{}
	err = r.Feed(in.Ops)
	if err == nil {
		var last *handoff.Chunk
		if last, res.Manifest, res.InFlight, err = r.Finish(in.InFlight); last != nil {
			res.Chunks = []*handoff.Chunk{last}
		}
	}
	res.Discrepancies = r.Discrepancies()
	res.OpsReplayed = r.OpsReplayed()
	res.OpsSkipped = r.OpsSkipped()
	res.ChecksRun = s.checks
	res.OverlayBlocks = len(s.overlay)
	return res, err
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
