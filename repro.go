// Package repro is a complete Go reproduction of "Shadow Filesystems:
// Recovering from Filesystem Runtime Errors via Robust Alternative
// Execution" (HotStorage '24): a performance-oriented base filesystem
// paired with a simple, check-everything shadow filesystem that shares its
// API and on-disk format, under a supervisor that masks detected runtime
// errors — including deterministic bugs — via contained reboot, shadow
// re-execution, and metadata hand-off.
//
// This package is the public facade over the implementation in internal/:
// it re-exports what a downstream user needs to format a device, mount a
// supervised filesystem, plant test faults, and inspect recoveries. The
// architecture, substitutions versus the paper, and per-experiment index
// live in DESIGN.md and EXPERIMENTS.md.
//
// Quickstart:
//
//	dev := repro.NewMemDevice(16384)                // 64 MiB in-memory disk
//	if _, err := repro.Format(dev); err != nil { ... }
//	fs, err := repro.Mount(dev, repro.Config{})     // RAE-supervised
//	fd, _ := fs.Create("/hello", 0o644)
//	fs.WriteAt(fd, 0, []byte("world"))
//	fs.Close(fd)
//	fs.Sync()
//	fs.Unmount()
//
// fs implements FileSystem; so do the raw base filesystem, the shadow, and
// the executable specification model, which is what makes the differential
// verification in this repository possible.
package repro

import (
	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/fswire"
	"repro/internal/mkfs"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// FileSystem is the operation interface shared by every implementation in
// this repository (supervised, base, shadow, model). See fsapi.FS for the
// full semantics contract.
type FileSystem = fsapi.FS

// FD is an application-visible file descriptor number.
type FD = fsapi.FD

// Stat describes an inode.
type Stat = fsapi.Stat

// DirEntry is one name in a directory listing.
type DirEntry = fsapi.DirEntry

// Device is the block-device interface filesystems mount on.
type Device = blockdev.Device

// FS is the RAE-supervised filesystem.
type FS = core.FS

// Config tunes the supervisor; the zero value is a sensible default
// (RAE mode, WARNs logged but not escalated, no watchdog).
type Config = core.Config

// BaseOptions tunes the base filesystem instances the supervisor mounts
// (cache sizes, extra checks, the fault injector); set via Config.Base.
type BaseOptions = basefs.Options

// Mode selects the failure-handling strategy (RAE or a baseline).
type Mode = core.Mode

// Failure-handling strategies.
const (
	// ModeRAE is the paper's system: contained reboot + shadow re-execution.
	ModeRAE = core.ModeRAE
	// ModeCrashRestart is the status-quo baseline.
	ModeCrashRestart = core.ModeCrashRestart
	// ModeNaiveReplay is the Membrane-style re-execution baseline.
	ModeNaiveReplay = core.ModeNaiveReplay
)

// Stats aggregates supervisor activity (recoveries, contained panics,
// downtime, per-recovery phase breakdowns).
type Stats = core.Stats

// Telemetry is the always-on observability sink: sharded counters, gauges,
// latency histograms, a bounded event journal, and per-recovery phase
// traces. Every supervised mount feeds one (the process-global
// DefaultTelemetry unless Config.Telemetry overrides it or
// Config.NoTelemetry opts out); query it via FS.Telemetry().
type Telemetry = telemetry.Sink

// TelemetrySnapshot is a point-in-time export of a sink's metrics, events,
// and recovery traces, serializable as JSON or human-readable text.
type TelemetrySnapshot = telemetry.Snapshot

// RecoveryTrace is one finished recovery record: one span for each of the
// supervisor's seven stages in execution order, summing exactly to its
// Wall, with the trigger class, the op-log length at detection, and the
// outcome. Its durations are those of the recovery's Stats().Phases entry.
type RecoveryTrace = telemetry.TraceSnapshot

// TelemetryEvent is one entry in the bounded event journal (WARNs, panics,
// fault-injection firings, recovery outcomes, degradations).
type TelemetryEvent = telemetry.Event

// NewTelemetry creates an isolated observability sink, for callers that
// want per-mount metrics instead of the process-global default.
func NewTelemetry() *Telemetry { return telemetry.New() }

// DefaultTelemetry returns the process-global sink that supervised mounts
// feed by default.
func DefaultTelemetry() *Telemetry { return telemetry.Default() }

// FaultRegistry is an armable registry of bug specimens for fault-injection
// experiments; pass it via Config.Base.Injector.
type FaultRegistry = faultinject.Registry

// FaultSpecimen is one plantable bug (class, trigger, determinism).
type FaultSpecimen = faultinject.Specimen

// NewFaultRegistry creates a registry with a deterministic seed.
func NewFaultRegistry(seed int64) *FaultRegistry { return faultinject.NewRegistry(seed) }

// Bug consequence classes, mirroring the paper's Table 1 taxonomy.
const (
	// BugCrash panics inside the filesystem operation.
	BugCrash = faultinject.Crash
	// BugWarn emits a kernel-style WARN and continues.
	BugWarn = faultinject.Warn
	// BugSilentCorrupt scribbles on in-flight metadata without a symptom.
	BugSilentCorrupt = faultinject.SilentCorrupt
	// BugFreeze blocks the operation (deadlock/livelock).
	BugFreeze = faultinject.Freeze
	// BugErrReturn makes the operation return a spurious EIO.
	BugErrReturn = faultinject.ErrReturn
)

// NewMemDevice creates a zero-filled in-memory block device of n 4 KiB
// blocks.
func NewMemDevice(n uint32) *blockdev.Mem { return blockdev.NewMem(n) }

// OpenFileDevice opens (or creates) a file-backed block device.
func OpenFileDevice(path string, blocks uint32, create bool) (*blockdev.File, error) {
	return blockdev.OpenFile(path, blocks, create)
}

// Format writes a fresh filesystem across the device with default geometry
// and returns its superblock.
func Format(dev Device) (*disklayout.Superblock, error) {
	return mkfs.Format(dev, mkfs.Options{})
}

// Mount brings up an RAE-supervised filesystem over a formatted device.
func Mount(dev Device, cfg Config) (*FS, error) { return core.Mount(dev, cfg) }

// Check runs the shadow-grade structural checker over an image and returns
// its report.
func Check(dev Device) *fsck.Report { return fsck.Check(dev) }

// BlockSize is the filesystem's block size in bytes.
const BlockSize = disklayout.BlockSize

// StdFS wraps any FileSystem — supervised, base, shadow, model, a volmgr
// tenant, or a remote fswire client — as Go's standard io/fs filesystem
// (fs.FS, fs.ReadDirFS, fs.StatFS, fs.ReadFileFS) with a write-side
// extension (OpenFile, Create, Mkdir, WriteFile, ...). Code written against
// the standard library — fs.WalkDir, testing/fstest, template loaders — runs
// unchanged over a supervised volume; errors satisfy errors.Is against both
// this repository's taxonomy and the io/fs sentinels.
func StdFS(fs FileSystem) *vfs.FS { return vfs.New(fs) }

// DialFS connects to an fsserve/volserve endpoint and attaches to a volume,
// returning a remote FileSystem that speaks the fswire protocol. Combine
// with StdFS for a standard-library view of a served volume.
func DialFS(addr, volume string) (*fswire.Client, error) { return fswire.Dial(addr, volume) }
