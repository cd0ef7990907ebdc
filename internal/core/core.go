// Package core implements Robust Alternative Execution (RAE), the paper's
// primary contribution: a supervisor that runs a performance-oriented base
// filesystem in the common case and, when a runtime error is detected,
// masks it by a contained reboot plus re-execution on the shadow filesystem.
//
// The supervisor wraps the base behind the shared fsapi.FS interface and:
//
//  1. records every state-changing operation and its outcome in the
//     operation log, truncating at durable points (§3.2);
//  2. detects runtime errors: panics in base code (contained with recover),
//     kernel-style WARNs (escalation configurable), internal corruption
//     (ErrCorrupt/ErrIO results, including pre-persist sync validation
//     failures), and freezes (per-operation watchdog);
//  3. performs the contained reboot: the faulty base instance is discarded
//     wholesale — caches, fd table, dirty state — and a fresh instance is
//     mounted from trusted on-disk state via journal replay;
//  4. launches the shadow over the same device (read-only, fsck-verified),
//     replays the recorded sequence in constrained mode and the in-flight
//     operation in autonomous mode;
//  5. hands the shadow's sealed metadata update to the rebooted base
//     (metadata download) and returns the in-flight operation's result to
//     the application, which never observes the failure.
//
// Supervision is concurrency-transparent: in the common case operations
// enter through the read side of a striped recovery gate and run fully in
// parallel (the base's own RWMutex + per-inode locking provides the real
// serialization); only a detected fault closes the gate, drains in-flight
// operations, and runs recovery exclusively. Operations that blocked at the
// closed gate retry against the recovered base, so applications never
// observe the failure even mid-burst.
//
// The package also hosts the baselines RAE is tested against:
// crash-restart (fail everything back to the application), naive replay
// (Membrane-style re-execution on the base itself, which re-triggers
// deterministic bugs), and 3-version voting (NVP).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/difftest"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/oplog"
	"repro/internal/scrub"
	"repro/internal/shadowfs"
	"repro/internal/telemetry"
)

// Mode selects the failure-handling strategy.
type Mode int

// Modes.
const (
	// ModeRAE is the paper's system: contained reboot + shadow re-execution.
	ModeRAE Mode = iota
	// ModeCrashRestart remounts from disk and fails the in-flight operation
	// and all open descriptors back to the application (the status quo the
	// paper argues against).
	ModeCrashRestart
	// ModeNaiveReplay remounts and re-executes the recorded sequence on the
	// base itself (Membrane-style); deterministic bugs re-trigger (§2.2's
	// fundamental conflict).
	ModeNaiveReplay
)

// String names the mode in experiment tables.
func (m Mode) String() string {
	switch m {
	case ModeRAE:
		return "rae"
	case ModeCrashRestart:
		return "crash-restart"
	case ModeNaiveReplay:
		return "naive-replay"
	}
	return "unknown"
}

// Config tunes the supervisor.
type Config struct {
	// Base configures the base filesystem instances (cache sizes, the bug
	// injector, extra checks).
	Base basefs.Options
	// Mode selects RAE or a baseline strategy.
	Mode Mode
	// EscalateWarns treats WARN records as detected errors that trigger
	// recovery (Table 1 counts WARNs among detectable consequences). When
	// false WARNs are logged and execution continues.
	EscalateWarns bool
	// Watchdog bounds each operation's execution; 0 disables freeze
	// detection.
	Watchdog time.Duration
	// StopOnDiscrepancy aborts recovery when the shadow's constrained replay
	// disagrees with a recorded outcome, degrading to crash-restart.
	StopOnDiscrepancy bool
	// MaxReplayRetries bounds naive replay's re-execution attempts before it
	// degrades to crash-restart.
	MaxReplayRetries int
	// RecoveryWorkers bounds the parallelism one recovery may use; 0 selects
	// the default (8). Above 1 the shadow's stage runs beside the contained
	// reboot (they work from independent read-only views of the post-replay
	// device state), the image check overlaps the replay and has this many
	// workers, and a crew of this size reads the frozen view ahead of both
	// (the planned check's read set: the scope for a scoped check, the device
	// for a full one), so recovery latency approaches max(reboot, replay) +
	// install. At 1 the same stages run on the recovering goroutine, one
	// after another, with nothing spawned: reboot, check, replay, install.
	// The order of device calls is then reproducible, which the torture
	// tier needs.
	RecoveryWorkers int
	// ScrubInterval enables the online background scrubber: every interval,
	// the parallel checker runs over a frozen snapshot-plus-committed-journal
	// view, publishing scrub.* telemetry; a corrupt finding trips the
	// recovery fence proactively and a clean pass refreshes the scoped-fsck
	// baseline. Requires the device to implement blockdev.Snapshotter.
	// 0 (the default) disables scrubbing.
	ScrubInterval time.Duration
	// ScrubWorkers sizes the scrubber's checker pool; 0 inherits RecoveryWorkers.
	ScrubWorkers int
	// ExternalScrub creates the scrubber without starting its internal timer:
	// an external scheduler (the volume manager's shared scrub worker pool)
	// drives passes through Scrubber().RunOnce() instead, so N volumes share
	// one checking budget rather than each running a private ticker. Requires
	// a device implementing blockdev.Snapshotter, like ScrubInterval.
	ExternalScrub bool
	// Telemetry selects the observability sink. Nil uses the process-global
	// telemetry.Default() sink: a supervised filesystem is always observable
	// unless NoTelemetry opts out.
	Telemetry *telemetry.Sink
	// NoTelemetry disables observability entirely; every instrument becomes a
	// nil no-op costing one pointer check. Used by overhead-isolating
	// benchmarks.
	NoTelemetry bool
}

func (c *Config) fill() {
	if c.MaxReplayRetries == 0 {
		c.MaxReplayRetries = 3
	}
	if c.RecoveryWorkers <= 0 {
		c.RecoveryWorkers = 8
	}
	if c.ScrubWorkers <= 0 {
		c.ScrubWorkers = c.RecoveryWorkers
	}
	if c.NoTelemetry {
		c.Telemetry = nil
	} else if c.Telemetry == nil {
		c.Telemetry = telemetry.Default()
	}
	c.Base.Telemetry = c.Telemetry
}

// RecoveryPhases breaks one recovery's latency into stages that partition
// its wall clock. The recovering goroutine spends Wall on, in order: Plan,
// Reboot, the hand-off (Absorb plus InstallWait) and Resume. The shadow's
// stage (ShadowStage, made of Fsck, ShadowMount and Replay) runs beside
// Reboot when RecoveryWorkers > 1, where the part of it that outlasts Reboot
// is what InstallWait measures, and inline between Reboot and the hand-off
// at RecoveryWorkers 1, where InstallWait is zero. So
//
//	workers 1:  Wall = Plan + Reboot + Fsck + ShadowMount + Replay + Absorb + Resume
//	workers >1: Wall = Plan + Reboot + Absorb + InstallWait + Resume
//	            Plan + max(Reboot, ShadowStage) + Resume <= Wall
//
// up to bookkeeping between the clocks (microseconds). With workers > 1 Fsck
// overlaps ShadowMount + Replay, so ShadowStage is less than the three's sum.
type RecoveryPhases struct {
	Plan        time.Duration // fence, kill, freeze the recovery input and the shadow's view
	Reboot      time.Duration // journal replay + fresh mount
	Fsck        time.Duration // shadow's image validation
	ShadowMount time.Duration // shadowfs.New + descriptor-table seed over the frozen view
	Replay      time.Duration // shadow constrained + autonomous execution
	ShadowStage time.Duration // wall clock of fsck, shadow mount and replay together
	Absorb      time.Duration // metadata download: time inside AbsorbChunk/AbsorbManifest
	InstallWait time.Duration // hand-off loop blocked on the shadow's chunk stream
	Resume      time.Duration // answer the in-flight op, retain the warm engine, settle trust
	// Wall is the measured end-to-end recovery latency.
	Wall time.Duration
}

// Total returns the end-to-end recovery latency: the measured wall clock
// when available, the stage sum otherwise (recoveries that
// degraded before the end, and zero values).
func (p RecoveryPhases) Total() time.Duration {
	if p.Wall > 0 {
		return p.Wall
	}
	return p.Plan + p.Reboot + p.Fsck + p.ShadowMount + p.Replay + p.Absorb + p.Resume
}

// Stats aggregates supervisor activity.
type Stats struct {
	OpsExecuted    int64
	OpsRecorded    int64
	StablePoints   int64
	Recoveries     int64
	Degradations   int64 // recoveries that fell back to crash-restart
	PanicsCaught   int64
	WarnsSeen      int64
	WarnsEscalated int64
	Freezes        int64
	FaultResults   int64 // ErrCorrupt/ErrIO outcomes intercepted
	FDsInvalidated int64 // descriptors lost to crash-restart semantics
	AppFailures    int64 // operations that surfaced a failure to the app
	SyncRetries    int64 // deferred sync re-runs retried past a device fault
	OpsReplayed    int64
	OpsReused      int64 // ops a warm resume did not have to re-replay
	Discrepancies  int64
	FsckFull       int64 // recovery checks that verified the whole image
	FsckScoped     int64 // recovery checks scoped to the fault's blast radius
	ScrubPasses    int64 // background scrub passes completed
	ScrubCorrupt   int64 // scrub passes that found corruption
	TouchedBlocks  int   // blocks written since the last verified baseline
	TotalDowntime  time.Duration
	Phases         []RecoveryPhases
	PeakLogLen     int

	// ForcedStablePoints counts the stable points the supervisor forced
	// because the op log reached its bound; StablePoints includes them.
	ForcedStablePoints int64
}

// counters holds the supervisor's live tallies. Every field is an atomic so
// concurrent operations never contend on a stats lock.
type counters struct {
	opsExecuted    atomic.Int64
	opsRecorded    atomic.Int64
	stablePoints   atomic.Int64
	forcedStable   atomic.Int64
	recoveries     atomic.Int64
	degradations   atomic.Int64
	panicsCaught   atomic.Int64
	warnsEscalated atomic.Int64
	freezes        atomic.Int64
	faultResults   atomic.Int64
	fdsInvalidated atomic.Int64
	appFailures    atomic.Int64
	syncRetries    atomic.Int64
	opsReplayed    atomic.Int64
	opsReused      atomic.Int64
	discrepancies  atomic.Int64
	fsckFull       atomic.Int64
	fsckScoped     atomic.Int64
	downtimeNs     atomic.Int64
}

// fdStripes is the stripe count of the per-descriptor record locks; a power
// of two so the index is a mask.
const fdStripes = 32

// roundStable is one sync round's stable-point capture: everything the log
// needs to truncate consistently once the round's image is durable. All
// three fields are read at the same instant under ns, so together they
// describe the filesystem state exactly as of watermark wm.
type roundStable struct {
	base  *basefs.FS
	wm    uint64
	fds   map[fsapi.FD]uint32
	clock uint64
}

// FS is the RAE-supervised filesystem. It implements fsapi.FS; applications
// use it exactly like the base, from any number of goroutines.
type FS struct {
	dev blockdev.Device
	// gate is the recovery fence: read-side entry in the common case,
	// exclusive closure for recovery.
	gate *gate
	// gen counts recoveries. An operation samples it at gate entry; a
	// faulting operation that finds it changed by the time it holds the gate
	// exclusively knows another goroutine already recovered, and retries
	// against the new base instead of recovering again.
	gen atomic.Uint64
	// base is the current base instance; replaced only while the gate is
	// held exclusively.
	base atomic.Pointer[basefs.FS]
	// fence is the current base instance's device handle; raised at the
	// start of every contained reboot so abandoned operations cannot touch
	// the device the recovery works from.
	fence atomic.Pointer[fencedDevice]
	log   *oplog.Log
	cfg   Config
	cnt   counters
	warns warnCounter
	// warnsHandled is the warn count already consumed by recoveries; the
	// pre-persist barrier vetoes a sync while warns.n is ahead of it.
	warnsHandled atomic.Int64

	// ns serializes execute+append for namespace-mutating operations, so the
	// recorded sequence order is a valid serialization of what the base
	// executed (the base serializes these under its own namespace lock
	// anyway, so this adds no contention the base didn't have). Each sync
	// round holds it only across its watermark read + dirty snapshot (the
	// PreSnapshot/PostSnapshot hooks), which pins the stable point's place
	// in the total order without blocking namespace operations for the
	// round's IO phases.
	ns sync.Mutex
	// roundStable describes the stable point of the sync round currently in
	// its snapshot-to-durable window — watermark, descriptor table, and
	// logical clock, all captured together under ns by the PreSnapshot hook
	// and consumed by OnSyncDurable. Rounds on the live base are serialized
	// by the base's leader protocol, so one slot suffices; the base pointer
	// lets the consumer reject a capture made by a round on an abandoned
	// instance.
	roundStable atomic.Pointer[roundStable]
	// forcing is set while a forced stable point runs (see forceStable).
	forcing atomic.Bool
	// fdmu stripes execute+append for per-descriptor mutations (writes,
	// close), keyed by descriptor number: conflicting ops on one descriptor
	// record in execution order, independent descriptors never contend.
	fdmu [fdStripes]sync.Mutex

	// devGen counts device writes across every base instance (bumped inside
	// the fence). The warm replayer retained after a recovery is valid for a
	// later fault only while this generation has not moved: any write since
	// retention — commit, checkpoint, eviction — changes bytes under the
	// retained overlay.
	devGen atomic.Uint64
	// touched records every block written through any fence since the last
	// time a recovery consumed (and reset) the set; see touched.go.
	touched *touchedSet
	// verified says the on-disk image passed a full check (a cold recovery's
	// fsck or a clean scrub pass) and every write since is in touched — the
	// precondition for a region-scoped recovery check. Cleared whenever a
	// recovery degrades or corruption is found; set only while recoveries
	// are excluded (exclusive gate, or read gate + generation check).
	verified atomic.Bool
	// scrub is the online background scrubber, nil unless ScrubInterval or
	// ExternalScrub is set.
	scrub *scrub.Scrubber
	// recovering is set for the duration of recoverFrom: the fleet layer
	// polls it to count how many volumes are inside a recovery right now.
	recovering atomic.Bool
	// cacheBudget, when nonzero, overrides Base.CacheBlocks for every base
	// instance this supervisor mounts (including contained reboots), so a
	// rebalanced quota survives recovery. Written by SetCacheBudget.
	cacheBudget atomic.Int64
	// scrubTripped marks an open corruption episode: the scrubber tripped a
	// recovery for it and won't trip again until a clean pass (or a clean
	// recovery check) re-arms it.
	scrubTripped atomic.Bool
	// extFault marks the in-progress recovery as externally triggered (a
	// scrub trip, not an application operation). Written and read only with
	// the gate held exclusively.
	extFault bool
	// warm is the replay engine retained by the last successful RAE
	// recovery, nil if none. Touched only while the gate is held
	// exclusively.
	warm *shadowfs.Replayer

	// tel is the observability sink (nil when Config.NoTelemetry); set once
	// at Mount and read-only afterwards.
	tel *telemetry.Sink

	// postMu guards the post-mortem state below (appended during exclusive
	// recovery, read by accessors at any time).
	postMu sync.Mutex
	phases []RecoveryPhases
	// lastDisc keeps the most recent recovery's discrepancy reports for
	// post-mortem inspection (§4.3: "reporting the discrepancies is
	// necessary").
	lastDisc []difftest.Discrepancy
}

var _ fsapi.FS = (*FS)(nil)

// Mount brings up a supervised filesystem over a formatted device.
func Mount(dev blockdev.Device, cfg Config) (*FS, error) {
	cfg.fill()
	fs := &FS{dev: dev, log: oplog.NewLog(), cfg: cfg, tel: cfg.Telemetry}
	fs.gate = newGate(fs.tel)
	fs.warns.next = cfg.Base.OnWarn
	fs.log.SetTelemetry(fs.tel)
	fs.tel.Counter("oplog.forced_stable_points") // reads 0 until forceStable feeds it
	fs.touched = newTouchedSet()
	var snap blockdev.Snapshotter
	if cfg.ScrubInterval > 0 || cfg.ExternalScrub {
		var ok bool
		if snap, ok = dev.(blockdev.Snapshotter); !ok {
			return nil, fmt.Errorf("core: scrubbing requires a device implementing blockdev.Snapshotter: %w", fserr.ErrInvalid)
		}
	}
	base, fence, err := fs.mountBase()
	if err != nil {
		return nil, err
	}
	fs.base.Store(base)
	fs.fence.Store(fence)
	fs.log.Stable(base.OpenFDs(), base.Clock())
	if snap != nil {
		fs.startScrubber(snap)
	}
	return fs, nil
}

// Telemetry returns the supervisor's observability sink (nil when mounted
// with NoTelemetry). Recovery traces, the event journal, and all layer
// metrics are queryable from it.
func (r *FS) Telemetry() *telemetry.Sink { return r.tel }

// Unmount syncs and stops the supervised filesystem. The scrubber is
// stopped first — a pass may be inside a recovery it tripped, which needs
// the gate this drain is about to close — then in-flight operations drain
// through the gate.
func (r *FS) Unmount() error {
	r.scrub.Stop()
	r.gate.close()
	defer r.gate.open()
	return r.base.Load().Unmount()
}

// Kill abandons the supervised filesystem without syncing (tests).
func (r *FS) Kill() {
	r.scrub.Stop()
	r.gate.close()
	defer r.gate.open()
	r.base.Load().Kill()
}

// Stats returns a copy of the supervisor's counters.
func (r *FS) Stats() Stats {
	s := Stats{
		OpsExecuted:    r.cnt.opsExecuted.Load(),
		OpsRecorded:    r.cnt.opsRecorded.Load(),
		StablePoints:   r.cnt.stablePoints.Load(),
		Recoveries:     r.cnt.recoveries.Load(),
		Degradations:   r.cnt.degradations.Load(),
		PanicsCaught:   r.cnt.panicsCaught.Load(),
		WarnsSeen:      r.warns.n.Load(),
		WarnsEscalated: r.cnt.warnsEscalated.Load(),
		Freezes:        r.cnt.freezes.Load(),
		FaultResults:   r.cnt.faultResults.Load(),
		FDsInvalidated: r.cnt.fdsInvalidated.Load(),
		AppFailures:    r.cnt.appFailures.Load(),
		SyncRetries:    r.cnt.syncRetries.Load(),
		OpsReplayed:    r.cnt.opsReplayed.Load(),
		OpsReused:      r.cnt.opsReused.Load(),
		Discrepancies:  r.cnt.discrepancies.Load(),
		FsckFull:       r.cnt.fsckFull.Load(),
		FsckScoped:     r.cnt.fsckScoped.Load(),
		ScrubPasses:    r.scrub.Passes(),
		ScrubCorrupt:   r.scrub.CorruptPasses(),
		TouchedBlocks:  r.touched.size(),
		TotalDowntime:  time.Duration(r.cnt.downtimeNs.Load()),
		PeakLogLen:     r.log.PeakLen(),

		ForcedStablePoints: r.cnt.forcedStable.Load(),
	}
	r.postMu.Lock()
	s.Phases = append([]RecoveryPhases(nil), r.phases...)
	r.postMu.Unlock()
	return s
}

// LastDiscrepancies returns the constrained-replay disagreements from the
// most recent recovery.
func (r *FS) LastDiscrepancies() []difftest.Discrepancy {
	r.postMu.Lock()
	defer r.postMu.Unlock()
	return append([]difftest.Discrepancy(nil), r.lastDisc...)
}

// Base exposes the current base instance for experiment instrumentation
// (cache hit rates). The instance changes across recoveries.
func (r *FS) Base() *basefs.FS { return r.base.Load() }

// LogLen returns the current recorded-operation count (recovery cost driver).
func (r *FS) LogLen() int { return r.log.Len() }

// DumpLog serializes the current recovery input — the recorded sequence,
// the stable-point descriptor table, and the clock — in the wire format a
// shadow process consumes. cmd/shadowreplay replays such dumps offline as
// the §4.3 post-error testing tool.
func (r *FS) DumpLog() []byte {
	ops, fds, clk := r.log.Snapshot()
	return oplog.EncodeSequence(ops, fds, clk)
}

// Injector returns the registry shared with the base, if any.
func (r *FS) Injector() *faultinject.Registry { return r.cfg.Base.Injector }

// Scrubber exposes the background scrubber (nil unless ScrubInterval or
// ExternalScrub is set), so tests, tools, and the volume manager's shared
// scrub scheduler can drive RunOnce or read pass counters directly.
func (r *FS) Scrubber() *scrub.Scrubber { return r.scrub }

// Recovering reports whether a recovery is executing right now. The fleet
// telemetry rollup samples it across volumes for the volmgr.recovering gauge.
func (r *FS) Recovering() bool { return r.recovering.Load() }

// SetCacheBudget adjusts the current base instance's buffer-cache
// clean-buffer bound and records the value so every future base instance
// (contained reboots replace the instance wholesale) mounts with the same
// bound. This is the supervisor-level handle the multi-volume cache
// rebalancer drives.
func (r *FS) SetCacheBudget(blocks int) {
	r.cacheBudget.Store(int64(blocks))
	r.base.Load().SetCacheBudget(blocks)
}

// CacheBudget returns the current base instance's clean-buffer bound.
func (r *FS) CacheBudget() int { return r.base.Load().CacheBudget() }

// lockRecord acquires the record lock(s) covering op; unlockRecord releases
// them. Holding the lock across execute+append keeps the recorded order a
// valid serialization for conflicting operations; independent operations
// take disjoint locks and proceed in parallel.
func (r *FS) lockRecord(op *oplog.Op) {
	switch op.Kind {
	case oplog.KWrite:
		r.fdmu[uint32(op.FD)&(fdStripes-1)].Lock()
	case oplog.KClose:
		// Close mutates both the namespace (fd table, possible deferred
		// unlink) and the descriptor: take both, ns first (lock order shared
		// with the sync leader).
		r.ns.Lock()
		r.fdmu[uint32(op.FD)&(fdStripes-1)].Lock()
	default:
		r.ns.Lock()
	}
}

func (r *FS) unlockRecord(op *oplog.Op) {
	if op.Kind == oplog.KWrite || op.Kind == oplog.KClose {
		r.fdmu[uint32(op.FD)&(fdStripes-1)].Unlock()
	}
	if op.Kind != oplog.KWrite {
		r.ns.Unlock()
	}
}

// --- fsapi.FS facade ---

// Mkdir implements fsapi.FS.
func (r *FS) Mkdir(path string, perm uint16) error {
	op := r.do(oplog.Op{Kind: oplog.KMkdir, Path: path, Perm: perm})
	return op.Err()
}

// Rmdir implements fsapi.FS.
func (r *FS) Rmdir(path string) error {
	op := r.do(oplog.Op{Kind: oplog.KRmdir, Path: path})
	return op.Err()
}

// Create implements fsapi.FS.
func (r *FS) Create(path string, perm uint16) (fsapi.FD, error) {
	op := r.do(oplog.Op{Kind: oplog.KCreate, Path: path, Perm: perm})
	return op.RetFD, op.Err()
}

// Open implements fsapi.FS.
func (r *FS) Open(path string) (fsapi.FD, error) {
	op := r.do(oplog.Op{Kind: oplog.KOpen, Path: path})
	return op.RetFD, op.Err()
}

// Close implements fsapi.FS.
func (r *FS) Close(fd fsapi.FD) error {
	op := r.do(oplog.Op{Kind: oplog.KClose, FD: fd})
	return op.Err()
}

// ReadAt implements fsapi.FS. Reads are not recorded; see probe.
func (r *FS) ReadAt(fd fsapi.FD, off int64, n int) ([]byte, error) {
	c := r.probe(call{op: oplog.Op{Kind: oplog.KReadProbe, FD: fd, Off: off, Size: int64(n)}})
	return c.op.RetData, c.err
}

// WriteAt implements fsapi.FS. The payload is copied at the facade boundary:
// the op can outlive this call (as the in-flight op of a recovery, replayed
// by the shadow after the caller resumed), so it must never alias a buffer
// the caller may reuse.
func (r *FS) WriteAt(fd fsapi.FD, off int64, data []byte) (int, error) {
	buf := make([]byte, len(data))
	copy(buf, data)
	op := r.do(oplog.Op{Kind: oplog.KWrite, FD: fd, Off: off, Data: buf})
	return op.RetN, op.Err()
}

// Truncate implements fsapi.FS.
func (r *FS) Truncate(path string, size int64) error {
	op := r.do(oplog.Op{Kind: oplog.KTruncate, Path: path, Size: size})
	return op.Err()
}

// Unlink implements fsapi.FS.
func (r *FS) Unlink(path string) error {
	op := r.do(oplog.Op{Kind: oplog.KUnlink, Path: path})
	return op.Err()
}

// Rename implements fsapi.FS.
func (r *FS) Rename(oldPath, newPath string) error {
	op := r.do(oplog.Op{Kind: oplog.KRename, Path: oldPath, Path2: newPath})
	return op.Err()
}

// Link implements fsapi.FS.
func (r *FS) Link(oldPath, newPath string) error {
	op := r.do(oplog.Op{Kind: oplog.KLink, Path: oldPath, Path2: newPath})
	return op.Err()
}

// Symlink implements fsapi.FS.
func (r *FS) Symlink(target, linkPath string) error {
	op := r.do(oplog.Op{Kind: oplog.KSymlink, Path: linkPath, Path2: target})
	return op.Err()
}

// Readlink implements fsapi.FS. A recovery answers it as a stat probe of
// the link.
func (r *FS) Readlink(path string) (string, error) {
	c := r.probe(call{op: oplog.Op{Kind: oplog.KStatProbe, Path: path}, probe: probeReadlink})
	return c.target, c.err
}

// Stat implements fsapi.FS.
func (r *FS) Stat(path string) (fsapi.Stat, error) {
	c := r.probe(call{op: oplog.Op{Kind: oplog.KStatProbe, Path: path}, probe: probeStat})
	return c.stat, c.err
}

// Fstat implements fsapi.FS. After a recovery the descriptor is still valid
// (the hand-off reconstructs the fd table), so the probe re-runs against
// the recovered base.
func (r *FS) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	c := r.probe(call{op: oplog.Op{Kind: oplog.KStatProbe, FD: fd}, probe: probeFstat})
	return c.stat, c.err
}

// Readdir implements fsapi.FS.
func (r *FS) Readdir(path string) ([]fsapi.DirEntry, error) {
	c := r.probe(call{op: oplog.Op{Kind: oplog.KReadDirProbe, Path: path}, probe: probeReaddir})
	return c.ents, c.err
}

// SetPerm implements fsapi.FS.
func (r *FS) SetPerm(path string, perm uint16) error {
	op := r.do(oplog.Op{Kind: oplog.KSetPerm, Path: path, Perm: perm})
	return op.Err()
}

// Fsync implements fsapi.FS. Syncs take the leader/follower path: the
// leader advances the stable point, followers coalesce inside the base's
// sync rounds.
func (r *FS) Fsync(fd fsapi.FD) error {
	op := r.do(oplog.Op{Kind: oplog.KFsync, FD: fd})
	return op.Err()
}

// Sync implements fsapi.FS.
func (r *FS) Sync() error {
	op := r.do(oplog.Op{Kind: oplog.KSync})
	return op.Err()
}
