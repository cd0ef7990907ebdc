package basefs

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
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
// home in vectored runs; metadata blocks are validated, journaled,
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
	// done is closed when the round ends. A leader's own round has none:
	// arrivals join the next round, so nobody waits on it.
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
	// Leader: run our round in the instance's leader slot, which is ours
	// until curRound moves on, then any rounds followers queued up meanwhile.
	mine := &fs.leadRound
	*mine = syncRound{ckpt: ckpt}
	fs.curRound = mine
	fs.syncMu.Unlock()
	fs.runRoundAsLeader(mine)
	err := mine.err
	for r := fs.nextLeadRound(); r != nil; r = fs.nextLeadRound() {
		fs.runRoundAsLeader(r)
		close(r.done)
	}
	return err
}

// nextLeadRound makes the queued follower round current and returns it, or
// nil when none is queued and the leader is done.
func (fs *FS) nextLeadRound() *syncRound {
	fs.syncMu.Lock()
	defer fs.syncMu.Unlock()
	fs.curRound, fs.nextRound = fs.nextRound, nil
	return fs.curRound
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
		if r.done != nil {
			close(r.done)
		}
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
	sc := &fs.scratch
	defer sc.release()
	runs, rets, err := fs.materializeDelalloc(sc)
	if err != nil {
		return err
	}
	// Fold dirty inodes into their table blocks.
	sc.inodes = fs.ic.DirtyInodes(sc.inodes)
	for _, ci := range sc.inodes {
		if err := fs.validateInodeForPersist(ci); err != nil {
			return err
		}
		if err := fs.writeInodeBack(ci); err != nil {
			return err
		}
		fs.ic.MarkClean(ci)
	}

	// Snapshot the dirty buffers, copied into pool blocks, after a slot kept
	// for the superblock; then order them metadata first, each part by block,
	// and split.
	sc.snaps = fs.bc.SnapshotDirty(append(sc.snaps, cache.DirtySnap{}))
	slices.SortFunc(sc.snaps[1:], func(a, b cache.DirtySnap) int {
		if a.Meta != b.Meta {
			if a.Meta {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Blk, b.Blk)
	})
	split := 1 + sort.Search(len(sc.snaps)-1, func(i int) bool { return !sc.snaps[1+i].Meta })
	meta, data := sc.snaps[1:split], sc.snaps[split:]

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
		b := fs.bc.SpareBlock()
		disklayout.PutSuperblock(b, fs.sb)
		sc.snaps[0] = cache.DirtySnap{Blk: 0, Meta: true, Data: b}
		meta = sc.snaps[:split]
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
	// Delalloc runs first, then the cached data, each as one vectored call:
	// the snapshot is sorted, so each run of adjacent blocks is one run. A
	// buffer is marked clean only once its write has succeeded; a failed
	// round leaves every snapshotted block dirty for the next one. The device
	// keeps no written buffer, so a copy it took goes back to the pool.
	if len(runs) > 0 {
		if err := fs.dev.WriteVec(runs); err != nil {
			return fmt.Errorf("basefs: sync delalloc write-back: %w", err)
		}
	}
	dataRuns := sc.runsOf(len(data), func(k int) uint32 { return data[k].Blk },
		func(k int) []byte { return data[k].Data })
	if len(dataRuns) > 0 {
		if err := fs.dev.WriteVec(dataRuns); err != nil {
			return fmt.Errorf("basefs: sync data write-back: %w", err)
		}
	}
	for _, s := range data {
		fs.bc.MarkCleanVer(s.Buf, s.Ver)
		fs.bc.Recycle(s.Data)
	}
	fs.retireDelalloc(rets)
	// Data needs a flush barrier before the commit record, but when a commit
	// follows (the common case: any metadata changed), its pre-commit-record
	// flush is that barrier — the data writes above have already completed at
	// the device, so the journal's first flush covers them. Only a data-only
	// round pays its own flush.
	if (len(data) > 0 || len(runs) > 0) && len(meta) == 0 {
		if err := fs.dev.Flush(); err != nil {
			return fmt.Errorf("basefs: sync data flush: %w", err)
		}
		flushes++
	}

	// --- Phase C: journal metadata in capacity-bounded transactions. ---
	// Commit is the durable point; home locations are written lazily by a
	// later checkpoint. Each commit costs two flushes (one pair), shared by
	// every fsync that coalesced onto this round.
	for len(meta) > 0 {
		chunk := meta
		if cap := fs.jnl.Capacity(); len(chunk) > cap {
			chunk = meta[:cap]
		}
		// The transaction adopts the snapshot's private copies; fs.unstable
		// keeps them until a newer commit replaces them or a checkpoint
		// writes them home.
		tx := &sc.tx
		tx.Reset()
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
			fs.bc.Recycle(fs.unstable[s.Blk])
			fs.unstable[s.Blk] = s.Data
			if b, ok := fs.validated[s.Blk]; ok {
				fs.bc.Recycle(b)
				delete(fs.validated, s.Blk)
			}
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
// device flushes issued. An inode-table block's written copy moves to
// fs.validated, where sync-validate still finds it; any other copy goes
// back to the pool.
func (fs *FS) checkpoint() (int, error) {
	if len(fs.unstable) == 0 {
		return 0, fs.jnl.Checkpointed() // no-op unless the chain is non-empty
	}
	sc := &fs.scratch
	blks := sc.blks[:0]
	for blk := range fs.unstable {
		blks = append(blks, blk)
	}
	slices.Sort(blks)
	sc.blks = blks
	// Home in runs of adjacent blocks, one vectored call, as in Phase B.
	runs := sc.runsOf(len(blks), func(k int) uint32 { return blks[k] },
		func(k int) []byte { return fs.unstable[blks[k]] })
	if err := fs.dev.WriteVec(runs); err != nil {
		return 0, fmt.Errorf("basefs: checkpoint write-back: %w", err)
	}
	if err := fs.dev.Flush(); err != nil {
		return 1, fmt.Errorf("basefs: checkpoint flush: %w", err)
	}
	// Homes are durable; advance the journal superblock past the chain.
	if err := fs.jnl.Checkpointed(); err != nil {
		return 1, err
	}
	fs.telCkptBlocks.Add(int64(len(blks)))
	for _, blk := range blks {
		fs.bc.MarkStable(blk)
		if fs.isTableBlock(blk) {
			fs.validated[blk] = fs.unstable[blk]
		} else {
			fs.bc.Recycle(fs.unstable[blk])
		}
		delete(fs.unstable, blk)
	}
	return 2, nil // home flush + journal superblock flush
}

// isTableBlock reports whether blk holds inode-table records.
func (fs *FS) isTableBlock(blk uint32) bool {
	return blk >= fs.sb.InodeTableStart && blk < fs.sb.InodeTableStart+fs.sb.InodeTableLen
}

// roundScratch is the sync-round leader's working memory, reused by every
// round so that a round allocates nothing for its own bookkeeping. Only the
// leader touches it (rounds are serialized), and release clears every
// reference it holds when the round ends, so no block stays reachable from
// it outside the pool's accounting.
type roundScratch struct {
	inodes []*cache.CachedInode
	// snaps is the dirty snapshot: a slot for the superblock, then the
	// metadata blocks, then the data blocks, each part sorted by block.
	snaps []cache.DirtySnap
	tx    journal.Tx
	// inos, idxs, frozen, rets, delBufs and delRuns are
	// materializeDelalloc's pending inodes, one file's frozen indexes, the
	// frozen blocks, the files' retirements and the write-back runs with
	// their buffers.
	inos    []uint32
	idxs    []int64
	frozen  []frozenBlock
	rets    []delRetire
	delBufs [][]byte
	delRuns []blockdev.Run
	// blks is checkpoint's block list; runs and bufs back runsOf's result,
	// which each caller is done with before the next call.
	blks []uint32
	runs []blockdev.Run
	bufs [][]byte
}

// release clears every reference the scratch holds, keeping its capacity.
func (sc *roundScratch) release() {
	sc.inodes = reuse(sc.inodes)
	sc.snaps = reuse(sc.snaps)
	sc.tx.Reset()
	sc.inos = sc.inos[:0]
	sc.idxs = sc.idxs[:0]
	sc.frozen = reuse(sc.frozen)
	sc.rets = reuse(sc.rets)
	sc.delBufs = reuse(sc.delBufs)
	sc.delRuns = reuse(sc.delRuns)
	sc.blks = sc.blks[:0]
	sc.runs = reuse(sc.runs)
	sc.bufs = reuse(sc.bufs)
}

// reuse clears s and returns it empty with its capacity.
func reuse[S ~[]E, E any](s S) S {
	clear(s)
	return s[:0]
}

// runsOf groups n blocks, sorted by number, into runs of adjacent blocks;
// blk(k) and buf(k) are the k-th block's number and content. The result
// lives in the scratch until the next call.
func (sc *roundScratch) runsOf(n int, blk func(int) uint32, buf func(int) []byte) []blockdev.Run {
	sc.bufs = reuse(sc.bufs)
	for k := 0; k < n; k++ {
		sc.bufs = append(sc.bufs, buf(k))
	}
	sc.runs = appendRuns(reuse(sc.runs), sc.bufs, blk)
	return sc.runs
}

// appendRuns appends bufs, sorted by block number, to runs as runs of
// adjacent blocks; blk(k) is the number of bufs[k]. The runs share bufs'
// backing array.
func appendRuns(runs []blockdev.Run, bufs [][]byte, blk func(int) uint32) []blockdev.Run {
	for i, n := 0, len(bufs); i < n; {
		j := i + 1
		for j < n && blk(j) == blk(j-1)+1 {
			j++
		}
		runs = append(runs, blockdev.Run{Blk: blk(i), Bufs: bufs[i:j:j]})
		i = j
	}
	return runs
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
// they can reach the journal: every record of a dirty inode-table block,
// not only the ones this round encoded, must be checksummed with sane
// fields. A record byte-equal to the same record of the block's committed
// copy (in fs.unstable, or in fs.validated once a checkpoint wrote it home)
// is skipped: that copy passed this same check when its round committed it,
// and the check reads only the record's bytes and the mount's fixed
// DataStart and NumBlocks, so it would pass again, however old the copy.
// Records decode into one stack value, so the pass allocates only when it
// fails.
func (fs *FS) validateMetaForPersist(meta []cache.DirtySnap) error {
	var ino disklayout.Inode
	for _, b := range meta {
		if fs.isTableBlock(b.Blk) {
			committed, ok := fs.unstable[b.Blk]
			if !ok {
				committed = fs.validated[b.Blk]
			}
			for i := 0; i < disklayout.InodesPerBlock; i++ {
				rec := b.Data[i*disklayout.InodeSize : (i+1)*disklayout.InodeSize]
				if committed != nil && bytes.Equal(rec, committed[i*disklayout.InodeSize:(i+1)*disklayout.InodeSize]) {
					continue
				}
				if err := ino.Decode(rec); err != nil {
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
