// Package basefs is the performance-oriented base filesystem: the complex,
// concurrent, cached, journaled implementation that handles all requests in
// the common case — and that contains the bugs RAE recovers from.
//
// Architecturally it is the left side of the paper's Figure 2: a VFS-style
// operation layer over a dentry cache, an inode cache, a write-back buffer
// cache and a write-ahead journal for metadata. IO is asynchronous in the
// write-back sense: dirty buffers wait for a sync round. Every device call,
// a round's writes and a cache miss alike, runs on the caller's goroutine.
// Runtime checks are minimal by default ("due to performance concerns,
// runtime checks are commonly disabled in the base", §2.3); the few cheap
// ones that exist (inode checksums on decode, block-pointer bounds before
// IO, and pre-persist sync validation) are the error detectors that hand
// control to the RAE supervisor.
//
// The package also implements the base-side half of the RAE contract:
//   - fault-injection seams on every operation path (see Seams),
//   - Kill, the abrupt teardown a contained reboot starts with, and
//   - Absorb/SetFDTable, the "metadata downloading" interface that installs
//     the shadow's output into the caches as dirty state (§3.2).
package basefs

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/cache"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/journal"
	"repro/internal/mkfs"
	"repro/internal/telemetry"
)

// Options tunes the base filesystem's performance machinery.
type Options struct {
	// CacheBlocks bounds clean buffers in the buffer cache (default 1024).
	CacheBlocks int
	// LegacyLayout forces new regular files onto the per-block direct/indirect
	// pointer tree instead of extents. Existing extent files remain readable
	// either way. Only tests set it: the twin-layout differential and the
	// bmap-upgrade tests.
	LegacyLayout bool
	// Injector is the armed bug registry; nil plants no bugs.
	Injector *faultinject.Registry
	// OnWarn, when set, receives every WARN record as it is emitted.
	OnWarn func(w Warning)
	// PrePersist, when set, runs inside Sync after validation and before the
	// first device write. Returning an error aborts the sync with the disk
	// still at the previous durable point; the RAE supervisor uses this to
	// enforce detection-before-persist for escalated WARNs.
	PrePersist func() error
	// PreSnapshot/PostSnapshot, when set, bracket each sync round's dirty
	// snapshot: PreSnapshot runs before the round takes the filesystem lock,
	// PostSnapshot as soon as the snapshot is complete and the lock is
	// released (on every exit path, including errors and contained panics).
	// The RAE supervisor uses them to scope its record-order critical
	// section to the snapshot instead of the whole sync, so namespace
	// operations run concurrently with the round's IO phases.
	PreSnapshot  func()
	PostSnapshot func()
	// OnSyncDurable, when set, runs after a sync round has made its snapshot
	// durable (metadata committed to the journal, data written home). The
	// supervisor truncates its operation log here: everything the snapshot
	// covered is now recoverable from disk.
	OnSyncDurable func()
	// Telemetry, when set, instruments the mount: per-op latency histograms,
	// cache hit/miss counters, device IO ("blockdev.base.*"), journal commit
	// metrics, replayed-transaction counts, and WARN events all flow into
	// this sink. Nil leaves the mount uninstrumented at zero cost.
	Telemetry *telemetry.Sink
}

// inodeCacheSize and dentryCacheSize bound the inode and dentry caches.
const (
	inodeCacheSize  = 1024
	dentryCacheSize = 4096
)

func (o *Options) fill() {
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 1024
	}
}

// Warning is a kernel-style WARN record: the base hit a condition worth
// reporting but chose to continue (the Linux "do not crash the kernel"
// discipline the paper cites).
type Warning struct {
	Seq int
	Msg string
}

// FS is the base filesystem. It implements fsapi.FS.
type FS struct {
	// mu is the namespace lock: exclusive for mutations, shared for lookups
	// and data-path operations (which further serialize per inode).
	mu  sync.RWMutex
	dev blockdev.Device
	sb  *disklayout.Superblock
	bc  *cache.BufferCache
	ic  *cache.InodeCache
	dc  *cache.DentryCache
	jnl *journal.Journal

	// allocMu serializes bitmap scans so concurrent data-path allocations
	// don't double-allocate. It also guards usedData.
	allocMu sync.Mutex
	// usedData is the logical data-region charge in blocks — the count the
	// specification model would have for the same namespace. For legacy files
	// it equals the physical blocks consumed; for extent files (whose physical
	// footprint is smaller) the difference is tracked so ENOSPC fires at
	// exactly the model's time. Guarded by allocMu.
	usedData int64
	// dataBlocks caches sb.DataBlocks() (the model's capacity).
	dataBlocks int64

	// delMu guards delalloc and pending (the files the next sync round
	// visits); a delFile's contents follow its inode's locks (see delFile).
	delMu    sync.Mutex
	delalloc map[uint32]*delFile
	pending  map[uint32]*delFile

	// syncMu guards the sync-round coordination state (see syncShared):
	// concurrent fsyncs coalesce onto rounds instead of serializing whole
	// sync passes.
	syncMu    sync.Mutex
	curRound  *syncRound
	nextRound *syncRound
	// leadRound is the round a caller that becomes leader runs first.
	leadRound syncRound
	// unstable holds the journaled content of blocks whose home copy is
	// stale (committed, not yet checkpointed). Only the sync-round leader
	// touches it; a checkpoint writes exactly these bytes home, never the
	// possibly newer cache content, so home writes are always of committed
	// transactions. A copy goes back to the cache's pool once a newer
	// commit replaces it or a checkpoint writes it home.
	unstable map[uint32][]byte
	// validated holds the copy a checkpoint wrote home of each inode-table
	// block not committed since, for sync-validate to compare against (see
	// validateMetaForPersist). A block is in unstable or validated, never
	// both, so the set is bounded by the table's length. Leader-only, like
	// unstable and scratch.
	validated map[uint32][]byte
	scratch   roundScratch

	// fds maps each open descriptor to its inode.
	fds   map[fsapi.FD]uint32
	clock atomic.Uint64

	warnMu sync.Mutex
	warns  []Warning

	opts   Options
	killed atomic.Bool

	// tel and the derived instruments are set once in Mount and read-only
	// afterwards; all are nil (and therefore no-ops) without Options.Telemetry.
	tel               *telemetry.Sink
	telWarns          *telemetry.Counter
	telSyncRounds     *telemetry.Counter
	telCkptBlocks     *telemetry.Counter
	telFlushesPerSync *telemetry.Gauge
	telExtFiles       *telemetry.Counter
	telExtMatBlocks   *telemetry.Counter
	telExtMatRuns     *telemetry.Counter
	telExtDemotions   *telemetry.Counter
	opHist            [numOps]*telemetry.Histogram
}

// opID names an fsapi operation instrumented with a per-op latency histogram
// ("basefs.op.<name>", name from opNames).
type opID uint8

const (
	opMkdir opID = iota
	opRmdir
	opCreate
	opOpen
	opClose
	opReadAt
	opWriteAt
	opTruncate
	opUnlink
	opRename
	opLink
	opSymlink
	opReadlink
	opStat
	opFstat
	opReaddir
	opSetPerm
	opFsync
	opSync
	numOps
)

var opNames = [numOps]string{
	"mkdir", "rmdir", "create", "open", "close", "readat", "writeat",
	"truncate", "unlink", "rename", "link", "symlink", "readlink",
	"stat", "fstat", "readdir", "setperm", "fsync", "sync",
}

// opTimer starts a latency timer for op; inert when telemetry is disabled.
func (fs *FS) opTimer(op opID) telemetry.Timer {
	return telemetry.StartTimer(fs.opHist[op])
}

var _ fsapi.FS = (*FS)(nil)

// Mount replays the journal, marks the filesystem dirty, and brings up the
// performance machinery. This same path serves the contained reboot: the
// supervisor calls Kill on the faulty instance and Mount on a fresh one.
func Mount(dev blockdev.Device, opts Options) (*FS, error) {
	opts.fill()
	dev = blockdev.Instrument(dev, opts.Telemetry, "base")
	sb, rst, err := mkfs.Recover(dev)
	if err != nil {
		return nil, fmt.Errorf("basefs: mount recovery: %w", err)
	}
	if tel := opts.Telemetry; tel != nil {
		tel.Counter("journal.replayed_txs").Add(int64(rst.Committed))
		tel.Counter("journal.replayed_blocks").Add(int64(rst.Blocks))
	}
	sb.Clean = 0
	sb.Generation++
	// Backup before primary: the in-place superblock update is the one write
	// recovery cannot replay, so at most one copy may be torn by a crash.
	if err := dev.WriteBlock(sb.BackupBlk(), disklayout.EncodeSuperblock(sb)); err != nil {
		return nil, fmt.Errorf("basefs: mount backup superblock: %w", err)
	}
	if err := dev.WriteBlock(0, disklayout.EncodeSuperblock(sb)); err != nil {
		return nil, fmt.Errorf("basefs: mount superblock: %w", err)
	}
	if err := dev.Flush(); err != nil {
		return nil, fmt.Errorf("basefs: mount flush: %w", err)
	}
	bc := cache.NewBufferCache(dev, opts.CacheBlocks)
	jnl, err := journal.New(dev, sb)
	if err != nil {
		return nil, fmt.Errorf("basefs: mount journal: %w", err)
	}
	fs := &FS{
		dev:        dev,
		sb:         sb,
		bc:         bc,
		ic:         cache.NewInodeCache(inodeCacheSize),
		dc:         cache.NewDentryCache(dentryCacheSize),
		jnl:        jnl,
		unstable:   make(map[uint32][]byte),
		validated:  make(map[uint32][]byte),
		fds:        make(map[fsapi.FD]uint32),
		delalloc:   make(map[uint32]*delFile),
		pending:    make(map[uint32]*delFile),
		dataBlocks: int64(sb.DataBlocks()),
		opts:       opts,
	}
	fs.clock.Store(sb.LastClock)
	if err := fs.seedAccounting(); err != nil {
		return nil, fmt.Errorf("basefs: mount accounting: %w", err)
	}
	if tel := opts.Telemetry; tel != nil {
		fs.tel = tel
		fs.telWarns = tel.Counter("basefs.warns")
		fs.telSyncRounds = tel.Counter("basefs.sync.rounds")
		fs.telCkptBlocks = tel.Counter("basefs.sync.checkpointed_blocks")
		fs.telFlushesPerSync = tel.Gauge("basefs.sync.flushes_per_sync")
		fs.telExtFiles = tel.Counter("extent.files")
		fs.telExtMatBlocks = tel.Counter("extent.delalloc.materialized_blocks")
		fs.telExtMatRuns = tel.Counter("extent.delalloc.write_runs")
		fs.telExtDemotions = tel.Counter("extent.demotions")
		for op, name := range opNames {
			fs.opHist[op] = tel.Histogram("basefs.op." + name)
		}
		bc.SetTelemetry(tel)
		fs.ic.SetTelemetry(tel)
		fs.dc.SetTelemetry(tel)
		fs.jnl.SetTelemetry(tel)
		opts.Injector.SetTelemetry(tel)
	}
	return fs, nil
}

// Superblock returns the mounted superblock (read-only use).
func (fs *FS) Superblock() *disklayout.Superblock { return fs.sb }

// JournalLiveTxs reports how many committed transactions are waiting in the
// journal for a checkpoint — the depth of the lazy-checkpoint backlog.
func (fs *FS) JournalLiveTxs() int { return fs.jnl.LiveTxs() }

// Unmount closes every remaining descriptor (releasing any open-unlinked
// orphans, as a kernel does at shutdown), syncs and fully checkpoints the
// journal and marks the filesystem clean. The filesystem must not be used
// afterwards.
func (fs *FS) Unmount() error {
	for fd := range fs.OpenFDs() {
		if err := fs.Close(fd); err != nil {
			return err
		}
	}
	// A full checkpoint, not a lazy sync: the clean flag below promises the
	// next mount an empty journal.
	if err := fs.Checkpoint(); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.sb.Clean = 1
	// Backup before primary, as at mount: a crash between the two writes
	// leaves a valid primary (still unclean) and loses nothing.
	if err := fs.dev.WriteBlock(fs.sb.BackupBlk(), disklayout.EncodeSuperblock(fs.sb)); err != nil {
		return fmt.Errorf("basefs: unmount backup superblock: %w", err)
	}
	if err := fs.dev.WriteBlock(0, disklayout.EncodeSuperblock(fs.sb)); err != nil {
		return fmt.Errorf("basefs: unmount superblock: %w", err)
	}
	if err := fs.dev.Flush(); err != nil {
		return fmt.Errorf("basefs: unmount flush: %w", err)
	}
	fs.killed.Store(true)
	return nil
}

// Kill abandons the instance without syncing: caches, fd table, and dirty
// state are discarded, exactly as a contained reboot requires ("all the
// states in the base filesystem's memory is not trusted, so we need to reset
// them", §2.2). On-disk state is left as the last durable point plus
// whatever the journal holds.
func (fs *FS) Kill() {
	if fs.killed.Swap(true) {
		return
	}
	fs.bcPurge()
}

func (fs *FS) bcPurge() {
	fs.ic.Purge()
	fs.dc.Purge()
}

// Warnf records a kernel-style WARN. Bug specimens of class Warn land here,
// as do the base's own defensive checks.
func (fs *FS) Warnf(format string, args ...any) {
	fs.warnMu.Lock()
	w := Warning{Seq: len(fs.warns), Msg: fmt.Sprintf(format, args...)}
	fs.warns = append(fs.warns, w)
	cb := fs.opts.OnWarn
	fs.warnMu.Unlock()
	fs.telWarns.Inc()
	fs.tel.Event("warn", "%s", w.Msg)
	if cb != nil {
		cb(w)
	}
}

// Warnings returns all WARN records emitted so far.
func (fs *FS) Warnings() []Warning {
	fs.warnMu.Lock()
	defer fs.warnMu.Unlock()
	out := make([]Warning, len(fs.warns))
	copy(out, fs.warns)
	return out
}

// fire invokes the fault-injection seam (op, point). It is a no-op without
// an armed registry.
func (fs *FS) fire(site *faultinject.Site) error {
	if fs.opts.Injector == nil {
		return nil
	}
	if site.Warnf == nil {
		site.Warnf = fs.Warnf
	}
	return fs.opts.Injector.Fire(site)
}

// tick advances the deterministic logical clock shared (in policy) with the
// model and the shadow: one tick per mutating operation.
func (fs *FS) tick() uint64 { return fs.clock.Add(1) }

// Clock returns the current logical time, used when seeding the shadow's
// clock during recovery.
func (fs *FS) Clock() uint64 { return fs.clock.Load() }

// SetClock forces the logical clock, used when absorbing recovered state.
func (fs *FS) SetClock(v uint64) { fs.clock.Store(v) }

// SetCacheBudget adjusts the buffer cache's clean-buffer bound at runtime
// (see cache.BufferCache.SetCleanBudget): shrinking evicts immediately,
// growing takes effect on later insertions. The multi-volume rebalancer uses
// it to move cache capacity between tenants sharing one fleet budget.
func (fs *FS) SetCacheBudget(blocks int) { fs.bc.SetCleanBudget(blocks) }

// CacheBudget returns the buffer cache's current clean-buffer bound.
func (fs *FS) CacheBudget() int { return fs.bc.CleanBudget() }

// CacheStats reports hit rates of the three caches, for the throughput
// experiments contrasting base and shadow.
func (fs *FS) CacheStats() (bufHits, bufMiss, inoHits, inoMiss, dentHits, dentMiss int64) {
	bufHits, bufMiss = fs.bc.HitRate()
	inoHits, inoMiss = fs.ic.HitRate()
	dentHits, dentMiss = fs.dc.HitRate()
	return
}

// OpenFDs returns a copy of the descriptor table (descriptor to inode),
// which the supervisor snapshots at stable points.
func (fs *FS) OpenFDs() map[fsapi.FD]uint32 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return maps.Clone(fs.fds)
}

// errBadFD wraps fserr.ErrBadFD with the descriptor for diagnostics.
func errBadFD(fd fsapi.FD) error {
	return fmt.Errorf("basefs: fd %d: %w", fd, fserr.ErrBadFD)
}
