package basefs

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/blockdev"
	"repro/internal/cache"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/journal"
)

// Fsync implements fsapi.FS. Like ext3/4's journaled metadata, fsync commits
// the running transaction, which persists all pending metadata — so every
// fsync is a global stable point the supervisor can truncate the operation
// log at.
func (fs *FS) Fsync(fd fsapi.FD) error {
	t := fs.opTimer(opFsync)
	defer t.Stop()
	fs.mu.RLock()
	_, ok := fs.fds[fd]
	fs.mu.RUnlock()
	if !ok {
		return errBadFD(fd)
	}
	return fs.syncShared(false)
}

// Sync implements fsapi.FS: ordered-mode write-back. Data blocks go straight
// home through the async queue; metadata blocks are validated, journaled,
// and committed — but NOT checkpointed: committed transactions accumulate in
// the journal and are written to their home locations only when the region
// runs low or at unmount. After Sync returns nil the on-disk image (journal
// included) equals the in-memory state, which is the supervisor's cue to
// discard recorded operations.
func (fs *FS) Sync() error {
	t := fs.opTimer(opSync)
	defer t.Stop()
	return fs.syncShared(false)
}

// syncRound is one execution of the sync pipeline. Concurrent fsync/sync
// callers coalesce onto rounds instead of serializing whole sync passes
// behind fs.mu: the first caller leads, later arrivals wait for the *next*
// round (which starts after their writes are in the cache, so it covers
// them), and the leader keeps running rounds until no one is waiting. A
// burst of N concurrent fsyncs thus costs at most two rounds — and each
// round's journal commit costs exactly two device flushes.
type syncRound struct {
	done chan struct{}
	err  error
	ckpt bool // at least one waiter needs a full checkpoint (unmount)
}

// syncShared runs or joins a sync round. ckpt forces the round to end with a
// full checkpoint, leaving the journal empty.
func (fs *FS) syncShared(ckpt bool) error {
	fs.syncMu.Lock()
	if fs.curRound != nil {
		// A round is in flight; it may have snapshotted before our writes.
		// Join the next one, which is guaranteed to start after them.
		if fs.nextRound == nil {
			fs.nextRound = &syncRound{done: make(chan struct{})}
		}
		r := fs.nextRound
		if ckpt {
			r.ckpt = true
		}
		fs.syncMu.Unlock()
		<-r.done
		return r.err
	}
	mine := &syncRound{done: make(chan struct{}), ckpt: ckpt}
	fs.curRound = mine
	fs.syncMu.Unlock()

	// Leader: run our round, then any rounds followers queued up meanwhile.
	r := mine
	for {
		fs.runRoundAsLeader(r)
		close(r.done)
		fs.syncMu.Lock()
		fs.curRound = fs.nextRound
		fs.nextRound = nil
		next := fs.curRound
		fs.syncMu.Unlock()
		if next == nil {
			return mine.err
		}
		r = next
	}
}

// runRoundAsLeader executes one round, filling r.err. A panic inside the
// round (an injected bug under supervision) must not wedge the leader
// protocol: the deferred cleanup fails this round and any queued follower
// round so their waiters unblock with an error, then lets the panic
// propagate to the supervisor's containment. Without this, a contained
// panic would leave curRound set forever and every later sync would block.
func (fs *FS) runRoundAsLeader(r *syncRound) {
	panicked := true
	defer func() {
		if !panicked {
			return
		}
		r.err = fmt.Errorf("basefs: sync round aborted by panic: %w", fserr.ErrIO)
		fs.syncMu.Lock()
		next := fs.nextRound
		fs.curRound, fs.nextRound = nil, nil
		fs.syncMu.Unlock()
		if next != nil {
			next.err = r.err
			close(next.done)
		}
		close(r.done)
	}()
	r.err = fs.runSyncRound(r.ckpt)
	panicked = false
}

// runSyncRound executes one sync pass. Rounds are serialized by the leader
// protocol, so fs.unstable and the journal cursor see no concurrent rounds.
//
// Phase A holds fs.mu exclusively but performs no IO: validate, snapshot
// dirty state (copies + versions) from sets kept as state turns dirty, so it
// costs what the round writes, and pass the pre-persist barrier. Phases B-D
// run without fs.mu, so readers and writers proceed while the IO is in
// flight; buffers are retired by version so a concurrent re-dirty is kept.
func (fs *FS) runSyncRound(ckpt bool) error {
	flushes := 0
	defer func() {
		fs.telSyncRounds.Inc()
		fs.telFlushesPerSync.Set(int64(flushes))
	}()

	// Snapshot bracket for the supervisor: PreSnapshot before the lock (it
	// may take the supervisor's namespace lock, which nests outside fs.mu),
	// PostSnapshot exactly once on every exit path — error, panic, or the
	// normal hand-off to the IO phases.
	if fs.opts.PreSnapshot != nil {
		fs.opts.PreSnapshot()
	}
	snapDone := false
	finishSnapshot := func() {
		if !snapDone {
			snapDone = true
			if fs.opts.PostSnapshot != nil {
				fs.opts.PostSnapshot()
			}
		}
	}
	defer finishSnapshot()

	// --- Phase A: snapshot under fs.mu, memory only. ---
	// Held via a release flag so a contained panic (an injected bug at the
	// entry seam, or anywhere under the lock) cannot leave fs.mu poisoned:
	// under the supervisor, concurrent operations are still inside this
	// instance and must be able to drain out of it before recovery replaces
	// it. A lock abandoned by a panic would deadlock that drain.
	fs.mu.Lock()
	muHeld := true
	defer func() {
		if muHeld {
			fs.mu.Unlock()
		}
	}()
	if err := fs.fire(&faultinject.Site{Op: "sync", Point: "entry"}); err != nil {
		return err
	}
	// Materialize delayed allocations first: run and node allocation dirties
	// bitmap, node, and inode state that this round's snapshot must cover.
	// The returned runs are written home in Phase B before the journal
	// commit, preserving ordered-mode crash safety for delalloc data.
	runs, rets, err := fs.materializeDelalloc()
	if err != nil {
		return err
	}
	// Fold dirty inodes into their table blocks.
	for _, ci := range fs.ic.DirtyInodes() {
		if err := fs.validateInodeForPersist(ci); err != nil {
			return err
		}
		if err := fs.writeInodeBack(ci); err != nil {
			return err
		}
		fs.ic.MarkClean(ci)
	}

	// Partition the dirty snapshot.
	var data, meta []cache.DirtySnap
	for _, s := range fs.bc.SnapshotDirty() {
		if s.Meta {
			meta = append(meta, s)
		} else {
			data = append(data, s)
		}
	}
	sort.Slice(data, func(i, j int) bool { return data[i].Blk < data[j].Blk })
	sort.Slice(meta, func(i, j int) bool { return meta[i].Blk < meta[j].Blk })

	// Sync-validate: the fault model assumes errors are detected before
	// being persisted (§3.1, citing Recon/WAFL-style validation on sync).
	if err := fs.validateMetaForPersist(meta); err != nil {
		return err
	}

	// Logical clock: journaled with the other metadata (a torn in-place
	// superblock write would be unmountable), encoded here under fs.mu so
	// the superblock fields are quiesced. LastClock is advanced in memory
	// before the commit lands; if the round fails, the next one retries.
	if clk := fs.clock.Load(); clk != fs.sb.LastClock {
		fs.sb.LastClock = clk
		meta = append([]cache.DirtySnap{{Blk: 0, Meta: true, Data: disklayout.EncodeSuperblock(fs.sb)}}, meta...)
	}

	// Pre-persist barrier: the supervisor's last chance to veto the
	// write-out (e.g. an escalated WARN emitted earlier in this operation).
	// Everything up to here touched only memory, so a veto leaves the disk
	// exactly at the previous stable point — the property recovery relies on.
	if fs.opts.PrePersist != nil {
		if err := fs.opts.PrePersist(); err != nil {
			return err
		}
	}
	muHeld = false
	fs.mu.Unlock()
	finishSnapshot()

	// --- Phase B: ordered mode, data first. ---
	// Reallocation guard: if a data block's home is still a live journal
	// target (it held journaled metadata, was freed, and was reallocated as
	// data), writing it home now would let a crash replay stale metadata
	// over the new data. Checkpoint first to retire those records.
	guard := false
	for _, s := range data {
		if fs.jnl.Contains(s.Blk) {
			guard = true
			break
		}
	}
	for _, r := range runs {
		if guard {
			break
		}
		for i := range r.Bufs {
			if fs.jnl.Contains(r.Blk + uint32(i)) {
				guard = true
				break
			}
		}
	}
	if guard {
		n, err := fs.checkpoint()
		flushes += n
		if err != nil {
			return err
		}
	}
	// Delalloc runs first so the large vectored writes overlap the cached
	// data's write-back below, which goes home in contiguous runs too: the
	// snapshot is sorted, so each run of adjacent blocks is one request.
	var vecReqs []*blockdev.Request
	for _, r := range runs {
		vecReqs = append(vecReqs, fs.queue.WriteVecAsync(r.Blk, r.Bufs))
	}
	type dataRun struct {
		snaps []cache.DirtySnap
		req   *blockdev.Request
	}
	var dataRuns []dataRun
	for i := 0; i < len(data); {
		j := i + 1
		for j < len(data) && data[j].Blk == data[j-1].Blk+1 {
			j++
		}
		bufs := make([][]byte, j-i)
		for k := range bufs {
			bufs[k] = data[i+k].Data
		}
		dataRuns = append(dataRuns, dataRun{data[i:j], fs.queue.WriteVecAsync(data[i].Blk, bufs)})
		i = j
	}
	for _, r := range dataRuns {
		if err := r.req.Wait(); err != nil {
			return fmt.Errorf("basefs: sync data write-back: %w", err)
		}
		for _, s := range r.snaps {
			fs.bc.MarkCleanVer(s.Buf, s.Ver)
		}
	}
	for _, r := range vecReqs {
		if err := r.Wait(); err != nil {
			return fmt.Errorf("basefs: sync delalloc write-back: %w", err)
		}
	}
	fs.retireDelalloc(rets)
	// Data needs a flush barrier before the commit record, but when a commit
	// follows (the common case: any metadata changed), its pre-commit-record
	// flush is that barrier — the data writes above have already completed at
	// the device, so the journal's first flush covers them. Only a data-only
	// round pays its own flush.
	if (len(data) > 0 || len(runs) > 0) && len(meta) == 0 {
		if err := fs.queue.Flush(); err != nil {
			return fmt.Errorf("basefs: sync data flush: %w", err)
		}
		flushes++
	}

	// --- Phase C: journal metadata in capacity-bounded transactions. ---
	// Commit is the durable point; home locations are written lazily by a
	// later checkpoint. Each commit costs two flushes (one pair), shared
	// with any concurrent committers via the journal's group commit.
	for len(meta) > 0 {
		chunk := meta
		if cap := fs.jnl.Capacity(); len(chunk) > cap {
			chunk = meta[:cap]
		}
		tx := &journal.Tx{}
		for _, s := range chunk {
			tx.Add(s.Blk, s.Data)
		}
		err := fs.jnl.Commit(tx)
		if errors.Is(err, journal.ErrJournalFull) {
			// Region exhausted: retire the live chain, then retry once.
			n, cerr := fs.checkpoint()
			flushes += n
			if cerr != nil {
				return cerr
			}
			err = fs.jnl.Commit(tx)
		}
		if err != nil {
			return fmt.Errorf("basefs: journal commit: %w", err)
		}
		flushes += 2
		for _, s := range chunk {
			fs.unstable[s.Blk] = s.Data
			if s.Buf != nil {
				fs.bc.MarkJournaled(s.Buf, s.Ver)
			}
		}
		meta = meta[len(chunk):]
	}

	// --- Phase D: lazy checkpoint policy. ---
	// Committed transactions accumulate; write them home only when forced
	// (unmount) or when the region's remaining space runs low.
	if ckpt || fs.jnl.SpaceLeft() < fs.jnl.Capacity()/4 {
		n, err := fs.checkpoint()
		flushes += n
		if err != nil {
			return err
		}
	}
	// No exit seam here: a bug firing after the persist would be detected
	// after the disk moved past the stable point, which the fault model
	// excludes ("we assume that errors are detected before being persisted
	// to disk", §3.1). Sync bugs are modeled at the entry seam.
	if fs.opts.OnSyncDurable != nil {
		fs.opts.OnSyncDurable()
	}
	return nil
}

// checkpoint writes every journaled-but-unstable block to its home location,
// flushes, and retires the journal's live chain. Called only from within a
// sync round (rounds are serialized) or unmount. Returns the number of
// device flushes issued.
func (fs *FS) checkpoint() (int, error) {
	if len(fs.unstable) == 0 {
		return 0, fs.jnl.Checkpointed() // no-op unless the chain is non-empty
	}
	blks := make([]uint32, 0, len(fs.unstable))
	for blk := range fs.unstable {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	var reqs []interface{ Wait() error }
	for _, blk := range blks {
		reqs = append(reqs, fs.queue.WriteAsync(blk, fs.unstable[blk]))
	}
	for i, r := range reqs {
		if err := r.Wait(); err != nil {
			return 0, fmt.Errorf("basefs: checkpoint block %d: %w", blks[i], err)
		}
	}
	if err := fs.queue.Flush(); err != nil {
		return 1, fmt.Errorf("basefs: checkpoint flush: %w", err)
	}
	// Homes are durable; advance the journal superblock past the chain.
	if err := fs.jnl.Checkpointed(); err != nil {
		return 1, err
	}
	fs.telCkptBlocks.Add(int64(len(blks)))
	for _, blk := range blks {
		fs.bc.MarkStable(blk)
		delete(fs.unstable, blk)
	}
	return 2, nil // queue flush + journal superblock flush
}

// Checkpoint forces a full checkpoint through the sync-round machinery:
// everything dirty is journaled and everything journaled is written home,
// leaving the journal empty. Unmount uses it; tests use it to pin down
// journal state.
func (fs *FS) Checkpoint() error {
	return fs.syncShared(true)
}

// validateInodeForPersist runs the pre-persist semantic checks on one dirty
// inode. These are cheap and always on: they are the detection mechanism
// ("validating upon sync") that keeps corrupt metadata off the disk.
func (fs *FS) validateInodeForPersist(ci *cache.CachedInode) error {
	ino := &ci.Inode
	if t := ino.Type(); t > disklayout.TypeSym {
		return fmt.Errorf("basefs: sync-validate inode %d: type %d: %w", ci.Ino, t, fserr.ErrCorrupt)
	}
	if ino.Size < 0 || ino.Size > disklayout.MaxFileSize {
		return fmt.Errorf("basefs: sync-validate inode %d: size %d: %w", ci.Ino, ino.Size, fserr.ErrCorrupt)
	}
	if !ino.IsFree() {
		if err := ino.ValidatePointers(fs.sb); err != nil {
			return fmt.Errorf("basefs: sync-validate inode %d: %w", ci.Ino, err)
		}
	}
	if ino.IsDir() && ino.Size%disklayout.BlockSize != 0 {
		return fmt.Errorf("basefs: sync-validate inode %d: directory size %d not block-aligned: %w",
			ci.Ino, ino.Size, fserr.ErrCorrupt)
	}
	return nil
}

// validateMetaForPersist checks dirty metadata blocks structurally before
// they can reach the journal: inode-table blocks must hold checksummed
// records with sane fields.
func (fs *FS) validateMetaForPersist(meta []cache.DirtySnap) error {
	tableStart := fs.sb.InodeTableStart
	tableEnd := tableStart + fs.sb.InodeTableLen
	for _, b := range meta {
		if b.Blk >= tableStart && b.Blk < tableEnd {
			for i := 0; i < disklayout.InodesPerBlock; i++ {
				rec := b.Data[i*disklayout.InodeSize : (i+1)*disklayout.InodeSize]
				ino, err := disklayout.DecodeInode(rec)
				if err != nil {
					return fmt.Errorf("basefs: sync-validate table block %d record %d: %w", b.Blk, i, err)
				}
				if !ino.IsFree() {
					if err := ino.ValidatePointers(fs.sb); err != nil {
						return fmt.Errorf("basefs: sync-validate table block %d record %d: %w", b.Blk, i, err)
					}
				}
			}
		}
	}
	return nil
}
