package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/basefs"
	"repro/internal/fserr"
	"repro/internal/oplog"
)

// fault classifies one detected runtime error (§2: "all errors that can be
// detected are handled by the shadow").
type fault struct {
	// kind is "panic", "warn", "freeze", "result", or "scrub".
	kind string
	// err carries the result error or the recovered panic value.
	err error
	// external marks a fault not tied to any application operation (a scrub
	// trip): no app failure is counted on degrade, and the recovery takes
	// the cold path with a full check — the whole point is to re-examine
	// the image, which warm resume and scoped checks both skip.
	external bool
}

func (f *fault) String() string { return fmt.Sprintf("%s: %v", f.kind, f.err) }

// warnCounter is shared with every base instance the supervisor mounts.
type warnCounter struct {
	n    atomic.Int64
	next func(basefs.Warning)
}

// mountBase mounts a fresh base instance behind a new IO fence, wired to
// the supervisor's WARN counter, pre-persist barrier, and the sync-round
// hooks that drive log truncation.
func (r *FS) mountBase() (*basefs.FS, *fencedDevice, error) {
	opts := r.cfg.Base
	if b := r.cacheBudget.Load(); b > 0 {
		// A rebalanced cache quota outlives the instance it was applied to:
		// contained reboots mount with the current quota, not the configured
		// default.
		opts.CacheBlocks = int(b)
	}
	opts.OnWarn = func(w basefs.Warning) {
		r.warns.n.Add(1)
		if r.warns.next != nil {
			r.warns.next(w)
		}
	}
	// Sync-round bracket (see DESIGN.md "stable points under concurrency"):
	// ns is held from the watermark read through the end of the round's
	// dirty snapshot. Namespace ops hold ns across execute+append, so any op
	// the snapshot includes was appended before the watermark — truncating
	// at the watermark after the round persists can neither lose an op nor
	// leave an already-durable namespace op to be double-replayed. Writes
	// are not under ns; a write caught by the snapshot but logged past the
	// watermark replays idempotently. The hooks fire on every sync round,
	// including rounds led by a different goroutine's coalesced fsync.
	//
	// The descriptor table and clock are captured WITH the watermark, under
	// ns: they must describe the state as of the watermark, and creates or
	// closes running concurrently with the round's IO phases would otherwise
	// leak into the stable point while their ops stay in the log.
	var self atomic.Pointer[basefs.FS]
	opts.PreSnapshot = func() {
		r.ns.Lock()
		if base := self.Load(); base != nil {
			r.roundStable.Store(&roundStable{
				base:  base,
				wm:    r.log.Watermark(),
				fds:   base.OpenFDs(),
				clock: base.Clock(),
			})
		}
	}
	opts.PostSnapshot = func() { r.ns.Unlock() }
	opts.OnSyncDurable = func() {
		// A round completing on an abandoned instance (a frozen sync that
		// woke after recovery replaced the base) must not move the stable
		// point: its snapshot no longer corresponds to the live log. The
		// provenance check covers both directions — a dead round consuming a
		// live capture and a live round consuming a dead one.
		base := self.Load()
		rs := r.roundStable.Load()
		if base == nil || rs == nil || rs.base != base || r.base.Load() != base {
			return
		}
		r.log.StableAt(rs.wm, rs.fds, rs.clock)
		r.cnt.stablePoints.Add(1)
	}
	if r.cfg.EscalateWarns {
		// Detection-before-persist: if an escalated WARN has been emitted
		// that no recovery has consumed yet, veto the sync's write-out so the
		// disk stays at the previous stable point and recovery replays from
		// it.
		opts.PrePersist = func() error {
			if r.warns.n.Load() > r.warnsHandled.Load() {
				return fmt.Errorf("core: escalated WARN pending before persist: %w", fserr.ErrCorrupt)
			}
			return nil
		}
	}
	fence := newFence(r.dev, &r.devGen, r.touched)
	base, err := basefs.Mount(fence, opts)
	if err != nil {
		return nil, nil, err
	}
	self.Store(base)
	return base, fence, nil
}

// capture runs f under the supervisor's full detection envelope: panics are
// contained, WARN emission is observed, results are classified, and the
// watchdog bounds execution time. It returns nil when the operation
// completed without a detectable error (including ordinary user-level error
// returns, which are legitimate outcomes). It is safe to call from any
// number of goroutines; a WARN emitted by a concurrent operation may be
// attributed to this one, which at worst triggers one recovery the other
// goroutine would have triggered anyway.
func (r *FS) capture(f func() error) *fault {
	warnsBefore := r.warns.n.Load()

	type outcome struct {
		err      error
		panicked bool
		pval     any
	}
	run := func() (out outcome) {
		defer func() {
			if p := recover(); p != nil {
				out.panicked = true
				out.pval = p
			}
		}()
		out.err = f()
		return out
	}

	var out outcome
	if r.cfg.Watchdog > 0 {
		ch := make(chan outcome, 1)
		go func() { ch <- run() }()
		select {
		case out = <-ch:
		case <-time.After(r.cfg.Watchdog):
			r.cnt.freezes.Add(1)
			r.tel.Event("freeze", "operation exceeded watchdog %v", r.cfg.Watchdog)
			return &fault{kind: "freeze", err: fmt.Errorf("core: operation exceeded watchdog %v: %w",
				r.cfg.Watchdog, fserr.ErrIO)}
		}
	} else {
		out = run()
	}

	if out.panicked {
		r.cnt.panicsCaught.Add(1)
		r.tel.Event("panic", "contained panic: %v", out.pval)
		return &fault{kind: "panic", err: fmt.Errorf("core: contained panic: %v", out.pval)}
	}
	if r.cfg.EscalateWarns && r.warns.n.Load() > warnsBefore {
		r.cnt.warnsEscalated.Add(1)
		r.tel.Event("warn-escalated", "WARN(s) during operation escalated to recovery")
		return &fault{kind: "warn", err: fmt.Errorf("core: WARN escalated to recovery")}
	}
	if fserr.IsFault(out.err) {
		r.cnt.faultResults.Add(1)
		r.tel.Event("fault-result", "operation returned fault: %v", out.err)
		return &fault{kind: "result", err: out.err}
	}
	return nil
}

// recoverExclusive closes the gate (draining every in-flight operation),
// checks that no other goroutine recovered since genAtFault was sampled,
// and runs recovery. It returns false when the fault was superseded — the
// base instance the op faulted on is already gone — in which case the
// caller retries against the recovered base.
func (r *FS) recoverExclusive(flt *fault, inflight *oplog.Op, genAtFault uint64) bool {
	r.gate.close()
	defer r.gate.open()
	if r.gen.Load() != genAtFault {
		return false
	}
	r.recoverFrom(flt, inflight)
	r.gen.Add(1)
	return true
}

// do executes one mutating operation with recording and recovery. The op's
// outcome fields are filled either by the base (common case) or by
// recovery. An operation that faults while another goroutine's recovery is
// in flight retries against the recovered base: its failed attempt was
// never recorded and the faulty instance's in-memory state is discarded
// wholesale, so the retry is indistinguishable from a fresh call.
func (r *FS) do(op *oplog.Op) {
	r.cnt.opsExecuted.Add(1)
	for {
		si := r.gate.enter()
		gen := r.gen.Load()
		base := r.base.Load() // snapshot: an abandoned frozen goroutine must
		// keep using the instance it started on, not the one recovery installs
		unlock := r.lockRecord(op)
		if flt := r.execute(base, op); flt != nil {
			unlock()
			r.gate.exit(si)
			if r.recoverExclusive(flt, op, gen) {
				return
			}
			continue
		}
		full := r.afterSuccess(op)
		unlock()
		r.gate.exit(si)
		if full {
			r.forceStable()
		}
		return
	}
}

// execute applies op to base under the detection envelope. On success op
// carries the outcome; on a fault its outcome fields are zero, for recovery
// or the retry to decide.
func (r *FS) execute(base *basefs.FS, op *oplog.Op) *fault {
	if r.cfg.Watchdog == 0 {
		// No goroutine can be abandoned mid-operation: apply in place.
		flt := r.capture(func() error { return oplog.Apply(base, op) })
		if flt != nil {
			op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		}
		return flt
	}
	// Execute on a shallow copy: if the watchdog abandons a frozen
	// operation, the stuck goroutine keeps mutating only the copy's outcome
	// fields, never the op whose outcome recovery decides. The payload is
	// shared — it is private to the supervisor (copied at the facade) and
	// the base only reads it.
	attempt := *op
	flt := r.capture(func() error { return oplog.Apply(base, &attempt) })
	if flt == nil {
		op.Errno, op.RetFD, op.RetIno, op.RetN = attempt.Errno, attempt.RetFD, attempt.RetIno, attempt.RetN
		op.RetData = attempt.RetData
	}
	return flt
}

// doSync executes an application's sync/fsync.
func (r *FS) doSync(op *oplog.Op) {
	r.cnt.opsExecuted.Add(1)
	r.syncRound(op)
}

// syncRound runs one sync/fsync. All stable-point bookkeeping — watermark
// capture under ns, truncation after the round persists — happens in the
// sync-round hooks (see mountBase), driven by the base's round protocol:
// concurrent syncs coalesce onto shared rounds, and every durable round is
// a stable point regardless of which caller's goroutine led it.
func (r *FS) syncRound(op *oplog.Op) {
	for {
		si := r.gate.enter()
		gen := r.gen.Load()
		flt := r.execute(r.base.Load(), op)
		r.gate.exit(si)
		if flt == nil || r.recoverExclusive(flt, op, gen) {
			return
		}
	}
}

// forceStable runs a forced stable point: a sync round the supervisor
// issues because an append filled the op log (see DESIGN.md "Forced stable
// points"). The goroutine that made the append runs it once that op's
// outcome is settled and its record locks and gate slot are released, so
// the round never changes the op's result, needs no goroutine of its own,
// and slows only the caller that filled the log. One round runs at a time;
// appends that fill the log meanwhile go on without one. A fault inside the
// round is recovered like any sync's, and a round that fails is retried at
// the log's next bound crossing.
func (r *FS) forceStable() {
	if !r.forcing.CompareAndSwap(false, true) {
		return
	}
	defer r.forcing.Store(false)
	op := &oplog.Op{Kind: oplog.KSync}
	r.syncRound(op)
	if op.Errno == 0 {
		r.cnt.forcedStable.Add(1)
		r.tel.Counter("oplog.forced_stable_points").Inc()
	}
}

// runProbe runs one unrecorded read under the gate with fault recovery.
// exec executes against the given base instance and returns the captured
// fault, or nil. On a fault the probe recovers (op, which may be nil,
// receives the shadow's answer) or — when another goroutine's recovery
// superseded it — retries exec against the recovered base. Returns whether
// a recovery decided the outcome.
func (r *FS) runProbe(op *oplog.Op, exec func(base *basefs.FS) *fault) (recovered bool) {
	for {
		si := r.gate.enter()
		gen := r.gen.Load()
		base := r.base.Load()
		flt := exec(base)
		r.gate.exit(si)
		if flt == nil {
			return false
		}
		if r.recoverExclusive(flt, op, gen) {
			return true
		}
	}
}

// afterSuccess records a completed operation and reports whether the append
// filled the log. Syncs are never appended to the log (the shadow does not
// re-execute them), and their stable-point bookkeeping already ran inside
// the round via the OnSyncDurable hook — including on the recovery paths
// that re-run a sync exclusively.
func (r *FS) afterSuccess(op *oplog.Op) (full bool) {
	if op.Kind == oplog.KSync || op.Kind == oplog.KFsync || !op.Kind.Mutating() {
		return false
	}
	r.cnt.opsRecorded.Add(1)
	return r.log.Append(op)
}

// withInjectionDisabled runs supervisor support code with the bug registry
// gated off, so a deterministic specimen cannot re-fire inside the recovery
// machinery itself (the error-avoidance guarantee of §2.2 applied to the
// supervisor's own re-reads).
func (r *FS) withInjectionDisabled(f func()) {
	if inj := r.cfg.Base.Injector; inj != nil {
		inj.SetEnabled(false)
		defer inj.SetEnabled(true)
	}
	f()
}
