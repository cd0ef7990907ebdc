package shadowfs

import (
	"fmt"
	"sort"

	"repro/internal/difftest"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/handoff"
	"repro/internal/oplog"
)

// Replayer is the incremental recovery engine inside the shadow: it consumes
// the recorded op-log gap in batches and emits the resulting block images as
// sealed handoff chunks as it goes.
//
// Lifecycle: NewReplayer → any number of Feed/EmitChunk interleavings →
// Finish. A replayer serves one recovery; the next fault builds a fresh one.
type Replayer struct {
	s    *Shadow
	stop bool // abort on constrained-mode discrepancy

	chunkIdx int
	sums     []uint32
	emitted  map[uint32]bool // blocks handed off in some prior chunk

	discrepancies []difftest.Discrepancy
	opsReplayed   int
	opsSkipped    int
}

// NewReplayer attaches a replay engine to a freshly constructed shadow and
// seeds it with the stable-point descriptor table and clock. Every inode in
// baseFDs must exist on disk, be allocated, and be a regular file
// (directories are never held open through this API, and symlinks are not
// openable). stopOnDiscrepancy aborts recovery when constrained-mode
// cross-checking disagrees with a recorded outcome.
func NewReplayer(s *Shadow, baseFDs map[fsapi.FD]uint32, startClock uint64, stopOnDiscrepancy bool) (*Replayer, error) {
	s.clock.Set(startClock)
	for fd, ino := range baseFDs {
		rec, err := s.readAllocInode(ino)
		if err != nil {
			return nil, fmt.Errorf("shadowfs: replay fd %d: %w", fd, err)
		}
		if err := s.assert(rec.IsFile(), "fd %d maps to non-file inode %d (type %d)",
			fd, ino, rec.Type()); err != nil {
			return nil, err
		}
		if _, dup := s.fds[fd]; dup {
			return nil, s.assert(false, "duplicate fd %d in stable-point table", fd)
		}
		s.fds[fd] = ino
		s.opens[ino]++
	}
	return &Replayer{s: s, stop: stopOnDiscrepancy, emitted: make(map[uint32]bool)}, nil
}

// Discrepancies returns constrained-mode cross-check disagreements
// accumulated so far.
func (r *Replayer) Discrepancies() []difftest.Discrepancy { return r.discrepancies }

// OpsReplayed counts recorded operations executed so far.
func (r *Replayer) OpsReplayed() int { return r.opsReplayed }

// OpsSkipped counts recorded operations omitted (error outcomes, syncs).
func (r *Replayer) OpsSkipped() int { return r.opsSkipped }

// Feed replays a batch of recorded operations in constrained mode, in the
// order given. The caller is responsible for feeding each op exactly once.
func (r *Replayer) Feed(ops []*oplog.Op) error {
	for _, rec := range ops {
		if err := r.feedOne(rec); err != nil {
			return err
		}
	}
	return nil
}

// feedOne replays one recorded operation in constrained mode: completed
// syncs are already on disk (skipped), error outcomes are omitted except
// short writes whose successfully written prefix is application-visible,
// and allocation/descriptor decisions are pinned to the recorded outcome so
// application-visible numbers are reproduced — validating usability instead
// of trusting blindly.
func (r *Replayer) feedOne(rec *oplog.Op) error {
	s := r.s
	if rec.Kind == oplog.KFsync || rec.Kind == oplog.KSync {
		r.opsSkipped++
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
				r.discrepancies = append(r.discrepancies, difftest.Discrepancy{
					Op: rec, Field: "partial-write",
					Got:  fmt.Sprintf("n=%d errno=%d", got.RetN, got.Errno),
					Want: fmt.Sprintf("n=%d errno=0", rec.RetN),
				})
				if r.stop {
					return fmt.Errorf("shadowfs: constrained replay diverged at %s: %w", rec, fserr.ErrCorrupt)
				}
			}
			r.opsReplayed++
			return nil
		}
		r.opsSkipped++
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
	r.opsReplayed++
	if d := difftest.CompareOutcome(got, rec); len(d) > 0 {
		r.discrepancies = append(r.discrepancies, d...)
		if r.stop {
			return fmt.Errorf("shadowfs: constrained replay diverged at %s: %w", rec, fserr.ErrCorrupt)
		}
	}
	return nil
}

// EmitChunk seals every block written or freed since the last emission into
// one handoff chunk, deep-copying the block images — this is the single
// defensive copy across the isolation boundary; the base adopts the slices.
// Returns nil if nothing changed since the last chunk.
func (r *Replayer) EmitChunk() *handoff.Chunk {
	dirty, freed := r.s.TakeDelta()
	c := handoff.NewChunk(r.chunkIdx)
	for _, blk := range dirty {
		data, ok := r.s.overlay[blk]
		if !ok {
			continue // freed after dirtying within the same delta window
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		c.Blocks[blk] = cp
		if r.s.meta[blk] {
			c.Meta[blk] = true
		}
	}
	for _, blk := range freed {
		if r.emitted[blk] {
			c.Freed = append(c.Freed, blk)
		}
	}
	sort.Slice(c.Freed, func(i, j int) bool { return c.Freed[i] < c.Freed[j] })
	if c.Empty() {
		return nil
	}
	for blk := range c.Blocks {
		r.emitted[blk] = true
	}
	for _, blk := range c.Freed {
		delete(r.emitted, blk)
	}
	c.Seal()
	r.chunkIdx++
	r.sums = append(r.sums, c.Sum)
	return c
}

// Finish completes one recovery: it executes the in-flight operation in
// autonomous mode (the shadow makes its own policy decisions — fresh inode
// numbers, lowest-free descriptor), runs the shadow's final self-checks,
// emits the last chunk, and seals the manifest binding the whole stream.
// The returned in-flight op carries the shadow's outcome (nil if there was
// none); syncs pass through unexecuted (the base re-runs them after
// hand-off).
func (r *Replayer) Finish(inFlight *oplog.Op) (*handoff.Chunk, *handoff.Manifest, *oplog.Op, error) {
	var fl *oplog.Op
	if inFlight != nil {
		fl = inFlight.Clone()
		fl.Errno, fl.RetFD, fl.RetIno, fl.RetN = 0, 0, 0, 0
		if fl.Kind != oplog.KFsync && fl.Kind != oplog.KSync {
			_ = oplog.Apply(r.s, fl)
		}
		r.opsReplayed++
	}
	if err := r.s.sanityCheckFinal(); err != nil {
		return nil, nil, nil, err
	}
	last := r.EmitChunk()
	m := &handoff.Manifest{
		NumChunks: r.chunkIdx,
		Chain:     handoff.ChainSums(r.sums),
		FDs:       sortedFDs(r.s.fds),
		Clock:     r.s.clock.Now(),
	}
	m.Seal()
	return last, m, fl, nil
}

func sortedFDs(fds map[fsapi.FD]uint32) []handoff.FDEntry {
	out := make([]handoff.FDEntry, 0, len(fds))
	for fd, ino := range fds {
		out = append(out, handoff.FDEntry{FD: fd, Ino: ino})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FD < out[j].FD })
	return out
}
