package core

import (
	"fmt"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/fserr"
	"repro/internal/journal"
	"repro/internal/oplog"
	"repro/internal/shadowfs"
)

// The recovery engine. raeRecover runs the paper's procedure (§3.2) as one
// straight line on the recovering goroutine, each stage starting when the
// one before it has returned:
//
//	plan → reboot → check → shadow mount → replay → absorb → resume
//
// The plan freezes the shadow's input while the device is quiescent: the
// recorded gap and a read-only view of the device — the raw device overlaid
// with the journal's committed-transaction writes (the exact post-replay
// logical image) and the pre-reboot superblock — so the contained reboot's
// own writes (journal replay to home locations, the superblock rewrite) are
// invisible to the shadow. The check gates the replay: the shadow never runs
// over an image the check rejected.

// deferredSyncRetries bounds the extra attempts the resume path gives a
// deferred sync re-run that keeps hitting device-level faults before it
// declares a degradation. Transient faults clear within a retry or two; a
// device that refuses every attempt is genuinely unwritable.
const deferredSyncRetries = 3

// recoveryPlan freezes everything the shadow's stages need before the
// contained reboot starts: the recovery input (snapshotted and round-tripped
// through the wire format, proving it is self-contained) and the shadow's
// frozen device view. Built with the gate held exclusively and the old
// instance fenced, so the device is quiescent.
type recoveryPlan struct {
	ops []*oplog.Op
	fds map[fsapi.FD]uint32
	clk uint64

	// inFlight is the faulted op the shadow executes autonomously; nil when
	// the fault arose outside an op or the op is a sync (deferredSync).
	inFlight     *oplog.Op
	deferredSync bool

	// view is the frozen read-only device view for the shadow.
	view blockdev.Device

	// check validates the frozen view; chosen at plan time (scoped or full,
	// see planFsck). Nil if planning failed before the view was built.
	check func() *fsck.Report
	// touchedOld is the touched-block set drained when this plan claimed the
	// scoped-check baseline; merged back if the recovery fails so no write
	// ever escapes the next check's scope.
	touchedOld map[uint32]struct{}

	errWhat string
	err     error
}

// planRecovery builds the stage inputs. Errors are recorded in the plan,
// not returned: the engine still performs the contained reboot and then
// degrades on the fresh base.
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

	// The whole gap plus a frozen device view. The view is the raw device
	// overlaid with the journal's committed writes — the same logical image
	// the reboot's journal replay produces — plus the current superblock, so
	// the reboot's own writes (journal replay to home locations,
	// the superblock rewrite) are invisible to the shadow.
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
		// generation bump) before the shadow reads it. A committed transaction targeting block 0 takes precedence — that is
		// the post-replay superblock.
		over[0] = sbb
	}
	p.view = blockdev.NewOverlay(shadowDev, over)
	r.planFsck(p, over)
	return p
}

// planFsck picks the check the replay stage will run over the frozen view
// and claims the scoped-check baseline. Runs with the gate held exclusively
// (the only context where draining the touched set is sound). The scope of
// a region-scoped check is everything that can differ from the last
// verified image: every block written through a fence since (touchedOld),
// every block the journal overlay rewrites, and the superblock.
func (r *FS) planFsck(p *recoveryPlan, over map[uint32][]byte) {
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
	view := p.view
	if sc != nil {
		p.check = func() *fsck.Report { return fsck.CheckScoped(view, sc) }
	} else {
		p.check = func() *fsck.Report { return fsck.Check(view) }
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
// block from it is not. A successful recovery, which checked the image,
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
	r.verified.Store(true)
	r.scrubTripped.Store(false)
}

// runReplayStage checks the frozen view, mounts a fresh shadow over it and
// replays the recorded gap, lapping rc's stopwatch after each step. The
// check gates the replay. Returns the shadow's result, nil if the replay
// never ran; an error names the step that failed.
func (r *FS) runReplayStage(p *recoveryPlan, rc *recovery) (res *shadowfs.ReplayResult, err error) {
	frep := p.check()
	r.noteFsck(frep)
	rc.lap(&rc.ph.Fsck)
	if err := frep.Err(); err != nil {
		return nil, fmt.Errorf("shadow fsck: %w", err)
	}
	// The plan's check owns image validation; the shadow mount never
	// duplicates it.
	sh, err := shadowfs.New(p.view, shadowfs.Options{SkipFsck: true})
	rc.lap(&rc.ph.ShadowMount)
	if err != nil {
		return nil, fmt.Errorf("shadow mount: %w", err)
	}
	func() {
		// A scoped check vouches for the blocks in scope only; the shadow's
		// runtime checks turn corruption elsewhere into errors, but a panic
		// on adversarial input must degrade this recovery, not kill the
		// process.
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("shadow panicked during replay: %v: %w", rec, fserr.ErrCorrupt)
			}
		}()
		res, err = sh.Replay(shadowfs.ReplayInput{
			Ops: p.ops, BaseFDs: p.fds, StartClock: p.clk,
			InFlight: p.inFlight, StopOnDiscrepancy: r.cfg.StopOnDiscrepancy,
		})
	}()
	rc.lap(&rc.ph.Replay)
	if err != nil {
		return res, fmt.Errorf("shadow replay: %w", err)
	}
	return res, nil
}

// raeRecover is the paper's recovery procedure (§3.2): contained reboot,
// check, shadow re-execution, hand-off, resume. Returns the trace outcome
// ("recovered", "degraded", or "failed"). It laps rc's stopwatch at each
// stage boundary up to absorb; recoverFrom's last lap closes resume.
func (r *FS) raeRecover(rc *recovery, inflight *oplog.Op) string {
	// Fence the faulty instance, kill it, and freeze the plan while the
	// device is quiescent.
	r.fence.Load().raise()
	r.base.Load().Kill()
	plan := r.planRecovery(inflight)
	rc.lap(&rc.ph.Plan)

	// Contained reboot: fresh instance from trusted on-disk state (journal
	// replay inside Mount).
	newBase, newFence, err := r.mountBase()
	rc.lap(&rc.ph.Reboot)
	if err != nil {
		// The device itself is unusable; nothing recovers this.
		r.fsckTrust(plan, false)
		r.tel.Event("degrade", "recovery failed: remount: %v", err)
		r.failOp(inflight)
		r.cnt.degradations.Add(1)
		return "failed"
	}
	if plan.err != nil {
		r.fsckTrust(plan, false)
		return r.degrade(newBase, newFence, inflight, plan.errWhat+": %v", plan.err)
	}

	res, err := r.runReplayStage(plan, rc)
	if res != nil {
		rc.opsReplayed = res.OpsReplayed
		r.cnt.opsReplayed.Add(int64(res.OpsReplayed))
		r.cnt.discrepancies.Add(int64(len(res.Discrepancies)))
		r.postMu.Lock()
		r.lastDisc = res.Discrepancies
		r.postMu.Unlock()
		for _, d := range res.Discrepancies {
			r.tel.Event("discrepancy", "%s", d.String())
		}
	}
	if err != nil {
		// The shadow itself failed (corrupt image, divergence under
		// StopOnDiscrepancy, or a shadow bug): degrade loudly. The fresh
		// base has absorbed nothing yet.
		r.fsckTrust(plan, false)
		return r.degrade(newBase, newFence, inflight, "%v", err)
	}

	// Hand-off: the base verifies and absorbs the sealed image.
	err = newBase.AbsorbImage(res.Image)
	rc.lap(&rc.ph.Absorb)
	if err != nil {
		r.fsckTrust(plan, false)
		return r.degradeDirty(newBase, newFence, inflight, err)
	}
	r.base.Store(newBase)
	r.fence.Store(newFence)

	// Resume: answer the in-flight operation and keep the log coherent.
	// Recorded operations stay in the log — they are still not durable.
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
		case res.InFlight != nil:
			*inflight = *res.InFlight
			r.afterSuccess(inflight)
		}
	}
	r.fsckTrust(plan, true)
	return "recovered"
}

// degradeDirty degrades to crash-restart semantics after a failed absorb,
// first discarding the fresh base: AbsorbImage may have verified the image
// and installed its blocks before restoring the descriptor table failed,
// which leaves state no check vouches for, so the instance is killed and a
// clean one mounted before the degrade bookkeeping runs.
func (r *FS) degradeDirty(newBase *basefs.FS, newFence *fencedDevice,
	inflight *oplog.Op, cause error) string {
	newFence.raise()
	newBase.Kill()
	newBase, newFence, err := r.mountBase()
	if err != nil {
		r.cnt.degradations.Add(1)
		r.tel.Event("degrade", "recovery failed after partial absorb: remount: %v", err)
		r.failOp(inflight)
		return "failed"
	}
	return r.degrade(newBase, newFence, inflight, "%v", cause)
}
