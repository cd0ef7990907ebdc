package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/basefs"
	"repro/internal/fsapi"
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

// probeKind selects the read a call runs in place of applying its op.
type probeKind uint8

const (
	applyOp probeKind = iota // a recorded call, a sync, or a ReadAt
	probeStat
	probeFstat
	probeReadlink
	probeReaddir
)

// call is one supervised call: the op, which a recorded call appends and a
// recovery answers, plus the results only a probe returns (a ReadAt's bytes
// are the op's RetData). The facade keeps it on its stack, so the common
// case allocates nothing the base does not: capture runs it in place, or on
// a heap copy when a watchdog goroutine might be abandoned with it.
type call struct {
	op     oplog.Op
	probe  probeKind
	stat   fsapi.Stat
	ents   []fsapi.DirEntry
	target string
	// err is the base's error: a probe's result, and for every call what
	// capture classifies.
	err error
}

// exec runs c once on base, filling its outcome.
func (c *call) exec(base *basefs.FS) {
	switch c.probe {
	case probeStat:
		c.stat, c.err = base.Stat(c.op.Path)
	case probeFstat:
		c.stat, c.err = base.Fstat(c.op.FD)
	case probeReadlink:
		c.target, c.err = base.Readlink(c.op.Path)
	case probeReaddir:
		c.ents, c.err = base.Readdir(c.op.Path)
	default:
		c.err = oplog.Apply(base, &c.op)
	}
}

// reset clears the outcome of an attempt that faulted, for recovery or the
// retry to decide.
func (c *call) reset() {
	c.op.Errno, c.op.RetFD, c.op.RetIno, c.op.RetN, c.op.RetData = 0, 0, 0, 0, nil
	c.stat, c.ents, c.target, c.err = fsapi.Stat{}, nil, "", nil
}

// inflight is the op a recovery answers for c. An Fstat has no form the
// shadow can execute, so it passes none and re-runs on the recovered base.
func (c *call) inflight() *oplog.Op {
	if c.probe == probeFstat {
		return nil
	}
	return &c.op
}

// contain runs c on base and returns the value of a panic it raised, or nil.
func contain(base *basefs.FS, c *call) (pval any) {
	defer func() { pval = recover() }()
	c.exec(base)
	return nil
}

// capture runs c on base under the supervisor's full detection envelope:
// panics are contained, WARN emission is observed, results are classified,
// and the watchdog bounds execution time. It returns nil when the call
// completed without a detectable error (including ordinary user-level error
// returns, which are legitimate outcomes); on a fault, c's outcome is zero.
// It is safe to call from any number of goroutines; a WARN emitted by a
// concurrent operation may be attributed to this one, which at worst
// triggers one recovery the other goroutine would have triggered anyway.
func (r *FS) capture(base *basefs.FS, c *call) *fault {
	warnsBefore := r.warns.n.Load()
	var pval any
	if r.cfg.Watchdog > 0 {
		// Run on a heap copy: if the watchdog abandons a frozen call, the
		// stuck goroutine keeps writing only its copy, never the record whose
		// outcome recovery decides. The payload is shared; it is private to
		// the supervisor (copied at the facade) and the base only reads it.
		cp := new(call)
		*cp = *c
		done := make(chan any, 1)
		go func() { done <- contain(base, cp) }()
		select {
		case pval = <-done:
			*c = *cp
		case <-time.After(r.cfg.Watchdog):
			r.cnt.freezes.Add(1)
			r.tel.Event("freeze", "operation exceeded watchdog %v", r.cfg.Watchdog)
			return &fault{kind: "freeze", err: fmt.Errorf("core: operation exceeded watchdog %v: %w",
				r.cfg.Watchdog, fserr.ErrIO)}
		}
	} else {
		// No goroutine can be abandoned mid-call: run in place.
		pval = contain(base, c)
	}

	var flt *fault
	switch {
	case pval != nil:
		r.cnt.panicsCaught.Add(1)
		r.tel.Event("panic", "contained panic: %v", pval)
		flt = &fault{kind: "panic", err: fmt.Errorf("core: contained panic: %v", pval)}
	case r.cfg.EscalateWarns && r.warns.n.Load() > warnsBefore:
		r.cnt.warnsEscalated.Add(1)
		r.tel.Event("warn-escalated", "WARN(s) during operation escalated to recovery")
		flt = &fault{kind: "warn", err: fmt.Errorf("core: WARN escalated to recovery")}
	case fserr.IsFault(c.err):
		r.cnt.faultResults.Add(1)
		r.tel.Event("fault-result", "operation returned fault: %v", c.err)
		flt = &fault{kind: "result", err: c.err}
	default:
		return nil
	}
	c.reset()
	return flt
}

// recoverExclusive closes the gate (draining every in-flight operation),
// checks that no other goroutine recovered since genAtFault was sampled,
// and runs recovery. It returns false when the fault was superseded — the
// base instance the op faulted on is already gone — in which case the
// caller retries against the recovered base. Recovery works on a private
// copy of the in-flight op, because its plan keeps the op; the outcome is
// copied back, so the caller's op never leaves the caller's stack.
func (r *FS) recoverExclusive(flt *fault, inflight *oplog.Op, genAtFault uint64) bool {
	r.gate.close()
	defer r.gate.open()
	if r.gen.Load() != genAtFault {
		return false
	}
	var op *oplog.Op
	if inflight != nil {
		op = new(oplog.Op)
		*op = *inflight
	}
	r.recoverFrom(flt, op)
	if inflight != nil {
		*inflight = *op
	}
	r.gen.Add(1)
	return true
}

// run executes c on the current base under the detection envelope and
// reports whether a recovery decided its outcome. A recorded call holds its
// record locks from execution through its append, so the recorded order is
// a valid serialization; one whose append filled the log then runs a forced
// stable point, after its locks and gate slot are released. A call that
// faults recovers, or, when another goroutine's recovery superseded it,
// retries against the recovered base: its failed attempt was never recorded
// and the faulty instance's in-memory state is discarded wholesale, so the
// retry is indistinguishable from a fresh call.
//
// Syncs are not recorded: their stable-point bookkeeping runs inside the
// base's sync round through the mountBase hooks, so concurrent syncs
// coalesce onto shared rounds and every durable round is a stable point,
// whichever caller's goroutine led it.
func (r *FS) run(c *call) (recovered bool) {
	record := c.probe == applyOp && recorded(c.op.Kind)
	for {
		si := r.gate.enter()
		gen := r.gen.Load()
		base := r.base.Load() // snapshot: an abandoned frozen goroutine must
		// keep using the instance it started on, not the one recovery installs
		if record {
			r.lockRecord(&c.op)
		}
		flt := r.capture(base, c)
		full := flt == nil && r.afterSuccess(&c.op)
		if record {
			r.unlockRecord(&c.op)
		}
		r.gate.exit(si)
		if flt == nil {
			if full {
				r.forceStable()
			}
			return false
		}
		if r.recoverExclusive(flt, c.inflight(), gen) {
			return true
		}
	}
}

// do runs one application call that is recorded or syncs, and returns its
// op with the outcome, decided by the base or by a recovery.
func (r *FS) do(op oplog.Op) oplog.Op {
	r.cnt.opsExecuted.Add(1)
	c := call{op: op}
	r.run(&c)
	return c.op
}

// probe runs one unrecorded read and returns c with its outcome. Reads enter
// the gate and the detection envelope like every other call: a read that
// trips a bug triggers recovery. An error from the shadow's execution of the
// read is then the answer. Otherwise a ReadAt returns the shadow's bytes, and
// the other reads re-run on the recovered base with injection gated off, so
// a deterministic specimen cannot re-fire inside the retry.
func (r *FS) probe(c call) call {
	if !r.run(&c) {
		return c
	}
	switch {
	case c.op.Errno != 0:
		c.op.RetData, c.err = nil, c.op.Err()
	case c.op.Kind != oplog.KReadProbe:
		r.withInjectionDisabled(func() { c.exec(r.base.Load()) })
	}
	return c
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
	c := call{op: oplog.Op{Kind: oplog.KSync}}
	r.run(&c)
	if c.op.Errno == 0 {
		r.cnt.forcedStable.Add(1)
		r.tel.Counter("oplog.forced_stable_points").Inc()
	}
}

// recorded reports whether calls of kind k are appended to the op log.
// Syncs are not: the shadow does not re-execute them.
func recorded(k oplog.Kind) bool {
	return k.Mutating() && k != oplog.KSync && k != oplog.KFsync
}

// afterSuccess records a completed operation and reports whether the append
// filled the log. A sync's stable-point bookkeeping already ran inside the
// round via the OnSyncDurable hook — including on the recovery paths that
// re-run a sync exclusively.
func (r *FS) afterSuccess(op *oplog.Op) (full bool) {
	if !recorded(op.Kind) {
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
