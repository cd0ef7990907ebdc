package core

import (
	"fmt"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/fserr"
	"repro/internal/handoff"
	"repro/internal/journal"
	"repro/internal/oplog"
	"repro/internal/shadowfs"
	"repro/internal/telemetry"
)

// The recovery engine. raeRecover runs the paper's procedure (§3.2) as a
// staged graph instead of a straight line:
//
//	plan ──┬── reboot ─────────────┬── install ── resume
//	       ├── fsck ───────────────┤
//	       └── replay ─────chunks──┘
//
// The contained reboot and the shadow's replay have no data dependency: the
// reboot's journal replay rewrites home locations on the device, while the
// shadow works from a frozen read-only view built at plan time — the raw
// device overlaid with the journal's committed-transaction writes (the
// exact post-replay logical image) and the pre-reboot superblock. The two
// stages therefore run concurrently, and the shadow streams its result out
// as sealed chunks that the install stage absorbs into the fresh base as
// they arrive. Recovery latency approaches max(reboot, replay) + install
// instead of their sum. There is one graph: Config.RecoveryWorkers == 1 runs
// the same stages on the recovering goroutine, one after another, with
// nothing spawned (reboot, then fsck, then replay, then install).

// replayFeedBatch is the op-count granularity of the incremental replay: a
// chunk is emitted (at most) every replayFeedBatch ops, bounding both the
// latency before the install stage has work and the per-chunk copy size.
const replayFeedBatch = 256

// warmMaxOverlayBlocks bounds the overlay a retained warm replayer may pin
// in memory between faults; a larger recovery is not retained.
const warmMaxOverlayBlocks = 8192

// deferredSyncRetries bounds the extra attempts the resume path gives a
// deferred sync re-run that keeps hitting device-level faults before it
// declares a degradation. Transient faults clear within a retry or two; a
// device that refuses every attempt is genuinely unwritable.
const deferredSyncRetries = 3

// recoveryPlan freezes everything the overlapped stages need before the
// contained reboot starts: the recovery input (snapshotted and round-tripped
// through the wire format, proving it is self-contained), the shadow's
// frozen device view, and the warm replayer when the previous recovery's
// engine is still valid. Built with the gate held exclusively and the old
// instance fenced, so the device is quiescent.
type recoveryPlan struct {
	ops []*oplog.Op
	fds map[fsapi.FD]uint32
	clk uint64

	// inFlight is the faulted op the shadow executes autonomously; nil when
	// the fault arose outside an op or the op is a sync (deferredSync).
	inFlight     *oplog.Op
	deferredSync bool

	// rep, when non-nil, is the retained warm engine: ops then holds only
	// the not-yet-consumed suffix of the log, and reused counts the ops the
	// retained state already covers.
	rep    *shadowfs.Replayer
	reused int
	// view is the cold path's frozen read-only device view for the shadow.
	view blockdev.Device
	// prefetch, when non-nil, is the background crew caching view's blocks;
	// released when the engine is done with the cold stage.
	prefetch *blockdev.Prefetched

	// check validates the frozen view; chosen at plan time (scoped or full,
	// see planFsck). Nil on a warm resume, which skips the check.
	check func() *fsck.Report
	// touchedOld is the touched-block set drained when this plan claimed the
	// scoped-check baseline; merged back if the recovery fails so no write
	// ever escapes the next check's scope.
	touchedOld map[uint32]struct{}

	errWhat string
	err     error
}

// release reclaims the plan's background resources; safe on any plan.
func (p *recoveryPlan) release() { p.prefetch.Release() }

// planRecovery builds the stage inputs. Errors are recorded in the plan,
// not returned: the engine still performs the contained reboot and then
// degrades on the fresh base, preserving the pre-pipeline failure behavior.
func (r *FS) planRecovery(inflight *oplog.Op) *recoveryPlan {
	p := &recoveryPlan{}
	if inflight != nil {
		if inflight.Kind == oplog.KFsync || inflight.Kind == oplog.KSync {
			// "The base [performs] fsync again after the hand-off" (§3.3).
			p.deferredSync = true
		} else {
			p.inFlight = inflight
		}
	}

	// Warm candidate: the engine retained by the previous recovery is valid
	// only if nothing moved underneath it — same op-log stable point, same
	// device write generation. Consumed (and re-retained on success) so no
	// stale engine survives a recovery that invalidates it.
	rep := r.warm
	r.warm = nil
	total := r.log.Len()
	key := shadowfs.ReplayerKey{StableSeq: r.log.StableSeq(), DevGen: r.devGen.Load()}
	// An external (scrub-tripped) fault exists to re-examine the image; the
	// warm path skips the check entirely, so it is disqualified even when the
	// key still matches (a scrub trip writes nothing, so it usually does).
	if rep != nil && rep.Key() == key && !r.extFault {
		ops, _, _ := r.log.SnapshotSince(rep.NextSeq())
		// The suffix crosses the isolation boundary like any recovery input.
		wire := oplog.EncodeSequence(ops, map[fsapi.FD]uint32{}, 0)
		ops, _, _, err := oplog.DecodeSequence(wire)
		if err != nil {
			p.errWhat, p.err = "trace decode", err
			return p
		}
		p.rep, p.ops, p.reused = rep, ops, total-len(ops)
		return p
	}

	// Cold path: full snapshot plus a frozen device view. The view is the
	// raw device overlaid with the journal's committed writes — the same
	// logical image the reboot's journal replay produces — plus the current
	// superblock, so the concurrent mount's own writes (journal replay to
	// home locations, the superblock rewrite) are invisible to the shadow.
	ops, fds, clk := r.log.Snapshot()
	wire := oplog.EncodeSequence(ops, fds, clk)
	ops, fds, clk, err := oplog.DecodeSequence(wire)
	if err != nil {
		p.errWhat, p.err = "trace decode", err
		return p
	}
	p.ops, p.fds, p.clk = ops, fds, clk

	shadowDev := blockdev.Instrument(r.dev, r.tel, "shadow")
	sbb, err := shadowDev.ReadBlock(0)
	if err != nil {
		p.errWhat, p.err = "shadow view", err
		return p
	}
	sb, err := disklayout.DecodeSuperblock(sbb)
	if err != nil {
		p.errWhat, p.err = "shadow view", err
		return p
	}
	over, _, err := journal.CommittedOverlay(shadowDev, sb)
	if err != nil {
		p.errWhat, p.err = "shadow view", err
		return p
	}
	if _, ok := over[0]; !ok {
		// Freeze the superblock too: the mount rewrites block 0 (dirty flag,
		// generation bump) concurrently with the shadow's startup read. A
		// committed transaction targeting block 0 takes precedence — that is
		// the post-replay superblock.
		over[0] = sbb
	}
	p.view = blockdev.NewOverlay(shadowDev, over)
	r.planFsck(p, sb, over)
	return p
}

// planFsck picks the check the replay stage will run over the frozen view,
// claims the scoped-check baseline, and starts the view's prefetch crew over
// exactly what that check will read. Runs with the gate held exclusively
// (the only context where draining the touched set is sound). The scope of
// a region-scoped check is everything that can differ from the last
// verified image: every block written through a fence since (touchedOld),
// every block the journal overlay rewrites, and the superblock.
func (r *FS) planFsck(p *recoveryPlan, sb *disklayout.Superblock, over map[uint32][]byte) {
	var sc *fsck.Scope
	p.touchedOld = r.touched.snapshotAndReset()
	if r.verified.Load() {
		sc = fsck.NewScope()
		sc.Add(0)
		for blk := range p.touchedOld {
			sc.Add(blk)
		}
		for blk := range over {
			sc.Add(blk)
		}
	}
	workers := r.cfg.RecoveryWorkers
	if workers > 1 {
		// Pipeline the view's IO too: a worker crew reads ahead of fsck and
		// replay, so their serial blocking reads stop paying the device's
		// per-IO service time. A scoped check reads the scope, so the crew
		// fetches the scope; only a full check is worth streaming the image.
		if sc != nil {
			p.prefetch = blockdev.NewPrefetchedRanges(p.view, workers, sc.PrefetchRanges(sb))
		} else {
			p.prefetch = blockdev.NewPrefetched(p.view, workers)
		}
		p.view = p.prefetch
	}
	view := p.view
	if sc != nil {
		p.check = func() *fsck.Report { return fsck.CheckScoped(view, sc, workers) }
	} else {
		p.check = func() *fsck.Report { return fsck.CheckParallel(view, workers) }
	}
}

// noteFsck records which flavor of check a recovery ran.
func (r *FS) noteFsck(rep *fsck.Report) {
	if rep.Scoped {
		r.cnt.fsckScoped.Add(1)
		r.tel.Counter("recovery.fsck.scoped").Inc()
		return
	}
	r.cnt.fsckFull.Add(1)
	r.tel.Counter("recovery.fsck.full").Inc()
}

// fsckTrust settles the scoped-check trust state for one recovery. On any
// failed or degraded recovery the baseline is revoked and the drained
// touched set merged back — over-scoping the next check is safe, losing a
// block from it is not. A successful recovery that actually checked the
// image (p.check non-nil: a warm resume does not)
// establishes a fresh baseline — every write after the frozen view went
// through a fence created over the same touched set, so the superset
// invariant holds from the view onward — and ends any scrub corruption
// episode.
func (r *FS) fsckTrust(p *recoveryPlan, ok bool) {
	if !ok {
		r.verified.Store(false)
		r.touched.merge(p.touchedOld)
		return
	}
	if p.check != nil {
		r.verified.Store(true)
		r.scrubTripped.Store(false)
	}
}

// replayOutcome is everything the replay stage hands back to the engine.
type replayOutcome struct {
	rep      *shadowfs.Replayer
	manifest *handoff.Manifest
	inFlight *oplog.Op

	fsckDur   time.Duration
	mountDur  time.Duration // shadowfs.New + Seed; zero on a warm resume
	replayDur time.Duration
	// stageDur is the stage's wall clock; with the fsck/replay overlap it is
	// less than the components' sum.
	stageDur time.Duration

	// opsReplayed and newDisc are this recovery's deltas (a warm engine's
	// counters span its whole lifetime); discs is the full list.
	opsReplayed int
	discs       []difftest.Discrepancy
	newDisc     int

	errWhat string
	err     error
}

// runReplayStage validates the image (cold path), replays the recorded gap
// incrementally, and emits sealed chunks through emit as it goes. It never
// touches supervisor state mutated by the concurrent reboot, and emit must
// not block on the caller.
//
// With RecoveryWorkers > 1 the cold path checks the image *concurrently* with
// the replay (the pFSCK-style decomposition): replay proceeds optimistically
// over the unvalidated view while fsck walks the same frozen, read-only
// blocks, and the stage only reports success once both agree. At 1 the check
// runs first and gates the replay. A failed check surfaces the same way in
// both — the engine discards the partially-absorbed base — so the overlap
// changes latency, never the contract that nothing recovered ever came from
// a corrupt image.
func (r *FS) runReplayStage(p *recoveryPlan, emit func(*handoff.Chunk)) *replayOutcome {
	out := &replayOutcome{}
	defer func(t0 time.Time) { out.stageDur = time.Since(t0) }(time.Now())
	rep := p.rep
	var fsckCh chan error
	if rep == nil {
		check := func() error {
			t := time.Now()
			frep := p.check()
			out.fsckDur = time.Since(t) // joined before out is read
			r.noteFsck(frep)
			return frep.Err()
		}
		if r.cfg.RecoveryWorkers > 1 {
			fsckCh = make(chan error, 1)
			go func() { fsckCh <- check() }()
		} else if err := check(); err != nil {
			out.errWhat, out.err = "shadow fsck", err
			return out
		}
		// The plan's check owns image validation; the shadow mount never
		// duplicates it.
		t := time.Now()
		sh, err := shadowfs.New(p.view, shadowfs.Options{SkipFsck: true})
		out.mountDur = time.Since(t)
		if err != nil {
			if fsckCh != nil {
				<-fsckCh
			}
			out.errWhat, out.err = "shadow mount", err
			return out
		}
		rep = shadowfs.NewReplayer(sh, shadowfs.ReplayerKey{}, r.cfg.StopOnDiscrepancy)
	} else {
		// Warm resume: the overlay, descriptor table, and clock carry over;
		// the chunk stream restarts from zero because the fresh base has
		// absorbed nothing. Fsck is not re-run — the image was validated by
		// the cold recovery and nothing wrote to the device since (the key
		// check in planRecovery), which is the bulk of the warm win.
		rep.ResetStream()
	}
	out.rep = rep
	opsBefore, discBefore := rep.OpsReplayed(), len(rep.Discrepancies())
	t := time.Now()
	err := func() (err error) {
		// Optimistic replay may run over a not-yet-validated image; the
		// shadow's runtime checks turn corruption into errors, but a panic on
		// adversarial input must degrade this recovery, not kill the process.
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("shadow panicked during replay: %v: %w", rec, fserr.ErrCorrupt)
			}
		}()
		if p.rep == nil {
			err := rep.Seed(p.fds, p.clk)
			seeded := time.Now()
			out.mountDur += seeded.Sub(t)
			t = seeded // the replay clock starts where the mount's ends
			if err != nil {
				return err
			}
		}
		for i := 0; i < len(p.ops); i += replayFeedBatch {
			end := i + replayFeedBatch
			if end > len(p.ops) {
				end = len(p.ops)
			}
			if err := rep.Feed(p.ops[i:end]); err != nil {
				return err
			}
			if c := rep.EmitChunk(); c != nil {
				emit(c)
			}
		}
		last, m, fl, err := rep.Finish(p.inFlight)
		if err != nil {
			return err
		}
		if last != nil {
			emit(last)
		}
		out.manifest, out.inFlight = m, fl
		return nil
	}()
	out.replayDur = time.Since(t)
	if err != nil {
		out.errWhat, out.err = "shadow replay", err
	}
	if fsckCh != nil {
		// Join the concurrent check; its verdict gates the stage regardless of
		// how the optimistic replay fared.
		if ferr := <-fsckCh; ferr != nil {
			out.errWhat, out.err = "shadow fsck", ferr
			out.manifest, out.inFlight = nil, nil
		}
	}
	out.opsReplayed = rep.OpsReplayed() - opsBefore
	out.discs = rep.Discrepancies()
	out.newDisc = len(out.discs) - discBefore
	return out
}

// observeStage records one engine stage's duration in the per-stage
// histogram family.
func (r *FS) observeStage(name string, d time.Duration) {
	r.tel.Histogram("recovery.stage." + name + "_ns").Observe(d)
}

// raeRecover is the paper's recovery procedure (§3.2) on the staged engine:
// contained reboot and shadow re-execution overlapped, hand-off streamed,
// resume. Returns the trace outcome ("recovered", "degraded", or "failed").
func (r *FS) raeRecover(tr *telemetry.Trace, inflight *oplog.Op) string {
	wall0 := time.Now()
	var ph RecoveryPhases

	// Fence the faulty instance, kill it, and freeze the plan while the
	// device is quiescent.
	tr.BeginPhase(telemetry.PhaseFence)
	r.fence.Load().raise()
	r.base.Load().Kill()
	plan := r.planRecovery(inflight)
	ph.Plan = time.Since(wall0)
	r.observeStage("plan", ph.Plan)
	// The prefetch crew and its cache live for this recovery only; a shadow
	// retained warm keeps the view, which degrades to pass-through reads.
	defer plan.release()

	note := ""
	if plan.rep != nil {
		note = "warm resume"
	}

	// The shadow's stage. With RecoveryWorkers > 1 it runs beside the reboot
	// and the install loop absorbs its chunks as they arrive; at 1 it runs on
	// this goroutine once the reboot is done and the loop finds the stream
	// complete. Either way the stage must never block on the loop, so the
	// channel holds the whole stream: at most one chunk per feed batch and a
	// last one from Finish. The op log's bound (oplog.MaxOps, enforced by
	// forced stable points) keeps that to about 18 chunks.
	overlap := plan.err == nil && r.cfg.RecoveryWorkers > 1
	chunkCh := make(chan *handoff.Chunk, len(plan.ops)/replayFeedBatch+2)
	var out *replayOutcome // written by stage, read after chunkCh is seen closed
	stage := func() {
		out = r.runReplayStage(plan, func(c *handoff.Chunk) { chunkCh <- c })
		close(chunkCh)
	}
	if overlap {
		go stage()
	}

	// Contained reboot: fresh instance from trusted on-disk state (journal
	// replay inside Mount).
	tr.BeginPhase(telemetry.PhaseReboot)
	t := time.Now()
	newBase, newFence, err := r.mountBase()
	ph.Reboot = time.Since(t)
	r.observeStage("reboot", ph.Reboot)
	if err != nil {
		// The device itself is unusable; nothing recovers this.
		if overlap {
			for range chunkCh { // join the stage; its output is abandoned
			}
		}
		r.fsckTrust(plan, false)
		r.tel.Event("degrade", "recovery failed: remount: %v", err)
		r.failOp(inflight)
		r.cnt.degradations.Add(1)
		r.addPhases(ph)
		return "failed"
	}
	if plan.err != nil {
		r.fsckTrust(plan, false)
		return r.degrade(newBase, newFence, inflight, ph, plan.errWhat+": %v", plan.err)
	}
	// A warm reboot may still find committed transactions in the journal
	// (lazy checkpointing leaves them behind), and its replay rewrites their
	// home locations — but under the devGen key check those bytes were
	// already replayed by the mount the warm engine was built over, so the
	// rewrite is byte-idempotent and the retained overlay stays valid.
	// newBase.MountReplay() exposes the replay for post-mortems.

	// Hand-off: absorb sealed chunks as they stream out of the shadow.
	// Absorb counts only time inside the base's absorb calls; what the loop
	// spends blocked on a stage that is still running is InstallWait.
	if !overlap {
		tr.BeginPhase(telemetry.PhaseShadowExec)
		tr.Note("%s", note)
		stage()
	}
	tr.BeginPhase(telemetry.PhaseHandoff)
	var installErr error
	dirty := false // has newBase absorbed any part of the stream?
	var wait time.Duration
	t = time.Now()
	for c := range chunkCh {
		wait += time.Since(t)
		if installErr == nil { // else keep receiving: the close joins the stage
			t = time.Now()
			installErr = newBase.AbsorbChunk(c)
			ph.Absorb += time.Since(t)
			dirty = true // a failed absorb may have installed a prefix
		}
		t = time.Now()
	}
	if overlap { // an inline stage had finished before the loop began
		ph.InstallWait = wait + time.Since(t)
	}
	ph.Fsck, ph.ShadowMount, ph.Replay, ph.ShadowStage = out.fsckDur, out.mountDur, out.replayDur, out.stageDur
	r.observeStage("fsck", ph.Fsck)
	r.observeStage("shadow_mount", ph.ShadowMount)
	r.observeStage("replay", ph.Replay)
	r.observeStage("install_wait", ph.InstallWait)
	if overlap {
		// The overlapped stage's time is reported as its own span; the
		// orchestrator's handoff span covers the whole drain window.
		tr.AddSpan(telemetry.PhaseShadowExec, out.stageDur, note)
	}

	r.cnt.opsReplayed.Add(int64(out.opsReplayed))
	r.cnt.discrepancies.Add(int64(out.newDisc))
	r.postMu.Lock()
	r.lastDisc = out.discs
	r.postMu.Unlock()
	tr.SetOpsReplayed(out.opsReplayed)
	for _, d := range out.discs[len(out.discs)-out.newDisc:] {
		r.tel.Event("discrepancy", "%s", d.String())
	}
	if plan.rep != nil {
		r.cnt.opsReused.Add(int64(plan.reused))
		r.tel.Counter("recovery.replay.reused_ops").Add(int64(plan.reused))
	}

	if out.err != nil {
		// The shadow itself failed (corrupt image, divergence under
		// StopOnDiscrepancy, or a shadow bug): degrade loudly.
		r.fsckTrust(plan, false)
		return r.degradeDirty(newBase, newFence, dirty, inflight, ph, out.errWhat+": %v", out.err)
	}
	if installErr != nil {
		r.fsckTrust(plan, false)
		return r.degradeDirty(newBase, newFence, true, inflight, ph, "absorb chunk: %v", installErr)
	}
	t = time.Now()
	err = newBase.AbsorbManifest(out.manifest)
	ph.Absorb += time.Since(t)
	if err != nil {
		r.fsckTrust(plan, false)
		return r.degradeDirty(newBase, newFence, true, inflight, ph, "absorb manifest: %v", err)
	}
	r.observeStage("install", ph.Absorb)
	r.base.Store(newBase)
	r.fence.Store(newFence)

	// Resume: answer the in-flight operation and keep the log coherent.
	// Recorded operations stay in the log — they are still not durable.
	tr.BeginPhase(telemetry.PhaseResume)
	t = time.Now()
	if inflight != nil {
		switch {
		case plan.deferredSync:
			// "If the base fails in the middle of fsync, our current design
			// relies on the shadow for the prefix operations and the base to
			// perform fsync again after the hand-off" (§3.3). The WARN that
			// vetoed the original persist was consumed by this recovery, so
			// the pre-persist barrier starts fresh for the re-run.
			//
			// The re-run stays inside the detection envelope: injected
			// specimens are disabled (a deterministic bug on the sync seam
			// would re-fire on every attempt), and a device-level fault gets
			// a bounded number of fresh attempts. A sync the device
			// persistently refuses is a failure no shadow can mask — the
			// application must see it, but only as an explicit degradation,
			// never as a silently leaked errno.
			for attempt := 0; ; attempt++ {
				r.warnsHandled.Store(r.warns.n.Load())
				r.withInjectionDisabled(func() {
					_ = oplog.Apply(r.base.Load(), inflight)
				})
				if !fserr.IsFault(fserr.FromErrno(inflight.Errno)) || attempt >= deferredSyncRetries {
					break
				}
				r.cnt.syncRetries.Add(1)
			}
			if inflight.Errno == 0 {
				r.afterSuccess(inflight)
			} else {
				if fserr.IsFault(fserr.FromErrno(inflight.Errno)) {
					r.cnt.degradations.Add(1)
					r.tel.Event("degrade",
						"deferred sync re-run still faulting after %d attempts: errno %d",
						deferredSyncRetries+1, inflight.Errno)
				}
				r.cnt.appFailures.Add(1)
			}
		case out.inFlight != nil:
			*inflight = *out.inFlight
			r.afterSuccess(inflight)
		}
	}
	r.retainWarm(out.rep)
	r.fsckTrust(plan, true)

	end := time.Now()
	ph.Resume, ph.Wall = end.Sub(t), end.Sub(wall0)
	r.observeStage("resume", ph.Resume)
	r.observeStage("wall", ph.Wall)
	r.addPhases(ph)
	return "recovered"
}

// retainWarm keeps the replay engine for the next fault. The key is
// captured after the resume path's own device writes (the deferred sync
// re-run, whose durable round also moves the stable point), so it names
// exactly the state the retained overlay extends; MarkConsumed covers the
// appended in-flight op so a warm resume fetches only genuinely new ops.
func (r *FS) retainWarm(rep *shadowfs.Replayer) {
	if rep == nil || rep.Shadow().OverlayBlocks() > warmMaxOverlayBlocks {
		return
	}
	rep.MarkConsumed(r.log.Watermark())
	rep.Rekey(shadowfs.ReplayerKey{StableSeq: r.log.StableSeq(), DevGen: r.devGen.Load()})
	r.warm = rep
}

// degradeDirty degrades to crash-restart semantics, first discarding the
// fresh base if it absorbed part of a chunk stream: a stream prefix without
// its manifest is unverified state, so the instance is killed and a clean
// one mounted before the degrade bookkeeping runs.
func (r *FS) degradeDirty(newBase *basefs.FS, newFence *fencedDevice, dirty bool,
	inflight *oplog.Op, ph RecoveryPhases, reasonFormat string, args ...any) string {
	if dirty {
		newFence.raise()
		newBase.Kill()
		nb, nf, err := r.mountBase()
		if err != nil {
			r.cnt.degradations.Add(1)
			r.tel.Event("degrade", "recovery failed after partial absorb: remount: %v", err)
			r.failOp(inflight)
			r.addPhases(ph)
			return "failed"
		}
		newBase, newFence = nb, nf
	}
	return r.degrade(newBase, newFence, inflight, ph, reasonFormat, args...)
}
