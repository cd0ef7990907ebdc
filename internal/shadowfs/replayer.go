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

// ReplayerKey identifies the trusted on-disk state a replayer's in-memory
// overlay extends. A retained (warm) replayer is valid for a later fault
// only if the key still matches: StableSeq is the op-log truncation
// watermark (a moved stable point means the disk absorbed ops the overlay
// also holds), and DevGen is the device write generation (any base write —
// journal replay at mount, commit, checkpoint, eviction — changes the bytes
// under the overlay).
type ReplayerKey struct {
	StableSeq uint64
	DevGen    uint64
}

// Replayer is the incremental recovery engine inside the shadow: it consumes
// the recorded op-log gap in batches, emits the resulting block images as
// sealed handoff chunks as it goes, and can be retained after a successful
// recovery so a second fault shortly after the first replays only the new
// op suffix instead of the whole gap.
//
// Lifecycle: NewReplayer → Seed (once) → any number of Feed/EmitChunk
// interleavings → Finish. After Finish the replayer may be retained; a
// warm resume repeats Feed/EmitChunk/Finish for the new suffix — Seed is
// not called again, and MarkConsumed tells the replayer which seqs the
// resume path consumed outside Feed (the appended in-flight op).
type Replayer struct {
	s    *Shadow
	key  ReplayerKey
	stop bool // abort on constrained-mode discrepancy

	seeded  bool
	nextSeq uint64 // first op seq not yet consumed
	haveSeq bool

	chunkIdx int
	sums     []uint32
	emitted  map[uint32]bool // blocks handed off in some prior chunk

	discrepancies []difftest.Discrepancy
	opsReplayed   int
	opsSkipped    int
}

// NewReplayer attaches a replay engine to a freshly constructed shadow.
// stopOnDiscrepancy aborts recovery when constrained-mode cross-checking
// disagrees with a recorded outcome.
func NewReplayer(s *Shadow, key ReplayerKey, stopOnDiscrepancy bool) *Replayer {
	return &Replayer{s: s, key: key, stop: stopOnDiscrepancy, emitted: make(map[uint32]bool)}
}

// Key returns the (stable seq, device generation) pair the replayer's state
// is valid against.
func (r *Replayer) Key() ReplayerKey { return r.key }

// Rekey binds the retained state to a new key — the supervisor calls it at
// the end of a successful recovery, after the resume path's own device
// writes, so the key names exactly the (stable point, device generation)
// the overlay extends.
func (r *Replayer) Rekey(k ReplayerKey) { r.key = k }

// NextSeq returns the first op-log sequence number the replayer has not yet
// consumed. A warm resume fetches exactly the suffix from here
// (oplog.SnapshotSince) instead of re-copying the whole gap.
func (r *Replayer) NextSeq() uint64 { return r.nextSeq }

// Shadow returns the underlying shadow filesystem.
func (r *Replayer) Shadow() *Shadow { return r.s }

// Discrepancies returns constrained-mode cross-check disagreements
// accumulated so far.
func (r *Replayer) Discrepancies() []difftest.Discrepancy { return r.discrepancies }

// OpsReplayed and OpsSkipped count operations executed and omitted across
// the replayer's whole lifetime, including warm resumes.
func (r *Replayer) OpsReplayed() int { return r.opsReplayed }

// OpsSkipped counts recorded operations omitted (error outcomes, syncs).
func (r *Replayer) OpsSkipped() int { return r.opsSkipped }

// MarkConsumed advances the consumed-seq watermark without replaying: the
// resume path appends the in-flight op (already executed autonomously by
// Finish) to the op log, and the warm state must cover its seq.
func (r *Replayer) MarkConsumed(nextSeq uint64) {
	if !r.haveSeq || nextSeq > r.nextSeq {
		r.nextSeq = nextSeq
		r.haveSeq = true
	}
}

// Seed installs the stable-point descriptor table and clock. Must be called
// exactly once, before the first Feed. Every inode must exist on disk, be
// allocated, and be a regular file (directories are never held open through
// this API, and symlinks are not openable).
func (r *Replayer) Seed(baseFDs map[fsapi.FD]uint32, startClock uint64) error {
	if r.seeded {
		return r.s.assert(false, "replayer seeded twice")
	}
	r.seeded = true
	s := r.s
	s.clock.Set(startClock)
	for fd, ino := range baseFDs {
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
	return nil
}

// Feed replays a batch of recorded operations in constrained mode, in the
// order given. The caller is responsible for feeding each op exactly once;
// a warm resume fetches the not-yet-consumed suffix with
// oplog.SnapshotSince(NextSeq()) rather than refeeding the whole gap.
func (r *Replayer) Feed(ops []*oplog.Op) error {
	if !r.seeded {
		return r.s.assert(false, "replayer fed before seeding")
	}
	for _, rec := range ops {
		if err := r.feedOne(rec); err != nil {
			return err
		}
		if !r.haveSeq || rec.Seq+1 > r.nextSeq {
			r.nextSeq = rec.Seq + 1
			r.haveSeq = true
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
// hand-off). The replayer remains usable for a warm resume afterwards.
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

// ResetStream rearms the chunk stream for the next recovery after a warm
// retention: the base that crashed absorbed the previous chunks into a
// now-dead instance, so the next recovery must hand off the full overlay
// again, from chunk zero.
func (r *Replayer) ResetStream() {
	r.chunkIdx = 0
	r.sums = nil
	r.emitted = make(map[uint32]bool)
	r.s.deltaFreed = make(map[uint32]bool)
	r.s.deltaDirty = make(map[uint32]bool)
	for blk := range r.s.overlay {
		r.s.deltaDirty[blk] = true
	}
}

func sortedFDs(fds map[fsapi.FD]uint32) []handoff.FDEntry {
	out := make([]handoff.FDEntry, 0, len(fds))
	for fd, ino := range fds {
		out = append(out, handoff.FDEntry{FD: fd, Ino: ino})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FD < out[j].FD })
	return out
}
