package core

import (
	"time"

	"repro/internal/basefs"
	"repro/internal/fserr"
	"repro/internal/oplog"
	"repro/internal/telemetry"
)

// recoverFrom is the supervisor's response to a detected fault, dispatching
// to the configured strategy. It runs with the recovery gate held
// exclusively: every in-flight operation has drained and no new one can
// enter until it returns. inflight is the operation whose return value the
// application has not seen (nil for probes with no replayable form); on
// return its outcome fields carry the answer the application gets.
//
// Every recovery produces one telemetry trace spanning the six canonical
// phases (detect → fence → reboot → shadow-exec → handoff → resume); phases
// a strategy never enters appear with zero duration.
func (r *FS) recoverFrom(flt *fault, inflight *oplog.Op) {
	r.recovering.Store(true)
	defer r.recovering.Store(false)
	r.cnt.recoveries.Add(1)
	r.extFault = flt.external
	defer func() { r.extFault = false }()
	tr := r.tel.StartRecovery(flt.kind, r.cfg.Mode.String(), r.log.Len())
	r.tel.Counter("recovery.trigger." + flt.kind).Inc()
	t0 := time.Now()
	var outcome string
	switch r.cfg.Mode {
	case ModeCrashRestart:
		outcome = r.crashRestart(tr, inflight)
	case ModeNaiveReplay:
		outcome = r.naiveReplay(tr, inflight)
	default:
		outcome = r.raeRecover(tr, inflight)
	}
	tr.Finish(outcome)
	r.cnt.downtimeNs.Add(int64(time.Since(t0)))
	// Every WARN emitted up to here has been consumed by this recovery: the
	// faulty instance is gone and the pre-persist barrier starts fresh.
	r.warnsHandled.Store(r.warns.n.Load())
}

// addPhases appends one recovery's phase breakdown to the post-mortem list.
func (r *FS) addPhases(ph RecoveryPhases) {
	r.postMu.Lock()
	r.phases = append(r.phases, ph)
	r.postMu.Unlock()
}

// raeRecover — the paper's recovery procedure on the staged, overlapping
// engine — lives in pipeline.go.

// degrade falls back to crash-restart semantics on an already-mounted fresh
// base: the recovery machinery could not reconstruct state, so buffered
// updates are lost, descriptors are invalidated, and the in-flight operation
// fails — but the system stays up on the last durable state, and the
// failure is explicit, never silent. The reason is journaled as a "degrade"
// event so post-mortems can tell which recovery step gave up.
func (r *FS) degrade(newBase *basefs.FS, newFence *fencedDevice, inflight *oplog.Op,
	ph RecoveryPhases, reasonFormat string, args ...any) string {
	r.cnt.degradations.Add(1)
	r.tel.Event("degrade", "recovery degraded to crash-restart: "+reasonFormat, args...)
	r.base.Store(newBase)
	r.fence.Store(newFence)
	r.finishCrashRestart(inflight)
	r.addPhases(ph)
	return "degraded"
}

// crashRestart implements the status-quo baseline: remount from disk and
// surface the failure.
func (r *FS) crashRestart(tr *telemetry.Trace, inflight *oplog.Op) string {
	r.warm = nil // crash-restart semantics invalidate any retained engine
	tr.BeginPhase(telemetry.PhaseFence)
	r.fence.Load().raise()
	tr.BeginPhase(telemetry.PhaseReboot)
	r.base.Load().Kill()
	newBase, newFence, err := r.mountBase()
	if err != nil {
		r.failOp(inflight)
		return "failed"
	}
	r.base.Store(newBase)
	r.fence.Store(newFence)
	tr.BeginPhase(telemetry.PhaseResume)
	r.finishCrashRestart(inflight)
	return "crash-restart"
}

// finishCrashRestart applies crash-restart bookkeeping against the current
// (fresh) base: every pre-crash descriptor is gone, buffered operations are
// lost, and the application sees the error.
func (r *FS) finishCrashRestart(inflight *oplog.Op) {
	ops, fds, _ := r.log.Snapshot()
	lost := int64(len(fds))
	// Descriptors opened since the stable point are also gone; they are
	// found in the recorded ops.
	for _, op := range ops {
		switch op.Kind {
		case oplog.KCreate, oplog.KOpen:
			if op.Errno == 0 {
				lost++
			}
		case oplog.KClose:
			if op.Errno == 0 {
				lost--
			}
		}
	}
	if lost < 0 {
		lost = 0
	}
	r.cnt.fdsInvalidated.Add(lost)
	base := r.base.Load()
	r.log.Stable(base.OpenFDs(), base.Clock())
	r.failOp(inflight)
}

// failOp surfaces the failure to the application. A proactive recovery
// (scrub trip) has no application operation waiting on it — when it fails
// or degrades, nothing surfaced to any app, so nothing is counted.
func (r *FS) failOp(inflight *oplog.Op) {
	if inflight != nil {
		inflight.Errno = fserr.Errno(fserr.ErrIO)
		inflight.RetFD = -1
	} else if r.extFault {
		return
	}
	r.cnt.appFailures.Add(1)
}

// naiveReplay implements the Membrane-style baseline: remount and re-execute
// the recorded sequence on the base itself. Deterministic bugs in the
// sequence re-fire on every attempt — the fundamental conflict between state
// reconstruction and error avoidance (§2.2) — so after MaxReplayRetries the
// baseline degrades to crash-restart.
func (r *FS) naiveReplay(tr *telemetry.Trace, inflight *oplog.Op) string {
	r.warm = nil // replay-on-base invalidates any retained engine
	ops, fds, _ := r.log.Snapshot()
	for attempt := 0; attempt < r.cfg.MaxReplayRetries; attempt++ {
		tr.BeginPhase(telemetry.PhaseFence)
		r.fence.Load().raise()
		tr.BeginPhase(telemetry.PhaseReboot)
		r.base.Load().Kill()
		newBase, newFence, err := r.mountBase()
		if err != nil {
			r.failOp(inflight)
			return "failed"
		}
		r.base.Store(newBase)
		r.fence.Store(newFence)
		if len(fds) != 0 {
			// The base has no interface for resurrecting descriptors without
			// a shadow update; naive replay can only reopen what the log can
			// name, which descriptors are not. This is precisely the state-
			// reconstruction gap RAE's fd snapshot + hand-off closes. Treat
			// pre-stable-point descriptors as lost.
			r.cnt.fdsInvalidated.Add(int64(len(fds)))
			fds = nil
		}
		ok := true
		base := r.base.Load()
		tr.BeginPhase(telemetry.PhaseShadowExec)
		tr.Note("naive replay on base, attempt %d", attempt+1)
		for _, rec := range ops {
			c := call{op: *rec}
			c.reset()
			if flt := r.capture(base, &c); flt != nil {
				ok = false // the deterministic bug re-fired
				break
			}
		}
		if !ok {
			continue
		}
		// Replay succeeded (transient fault): run the in-flight op.
		tr.SetOpsReplayed(len(ops))
		tr.BeginPhase(telemetry.PhaseResume)
		if inflight != nil {
			c := call{op: *inflight}
			if flt := r.capture(base, &c); flt != nil {
				continue
			}
			*inflight = c.op
			r.afterSuccess(inflight)
		}
		return "recovered"
	}
	// Retries exhausted: give up on the buffered state.
	r.cnt.degradations.Add(1)
	r.tel.Event("degrade", "naive replay degraded to crash-restart after %d attempts",
		r.cfg.MaxReplayRetries)
	r.fence.Load().raise()
	r.base.Load().Kill()
	newBase, newFence, err := r.mountBase()
	if err != nil {
		r.failOp(inflight)
		return "failed"
	}
	r.base.Store(newBase)
	r.fence.Store(newFence)
	tr.BeginPhase(telemetry.PhaseResume)
	r.finishCrashRestart(inflight)
	return "degraded"
}
