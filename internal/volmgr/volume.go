package volmgr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/telemetry"

	"repro/internal/blockdev"
)

// Volume lifecycle states. Transitions happen only under opmu's write lock.
const (
	stateOpen = iota
	stateClosed
	stateDestroyed
)

// Volume is one tenant: a private supervised filesystem plus the manager's
// isolation wrappers (admission control, per-tenant telemetry, lifecycle
// draining). It implements fsapi.FS; applications use it exactly like a
// core.FS, and a recovery or overload on one volume never touches another.
type Volume struct {
	mgr    *Manager
	name   string
	vcfg   VolumeConfig
	blocks uint32
	dev    *blockdev.Mem

	// opmu is the lifecycle drain: every operation holds the read side for
	// its full duration; Create/Open/Close/Destroy take the write side, so a
	// transition waits for in-flight operations and no operation runs on a
	// half-mounted or unmounting supervisor.
	opmu  sync.RWMutex
	state int
	sup   *core.FS
	// supAtomic mirrors sup for lock-free readers (fleet gauges, the
	// rebalancer's skip-if-busy probes) that must not touch opmu.
	supAtomic atomic.Pointer[core.FS]

	// sink is the volume's private telemetry sink. It is never the
	// process-global default and never shared with another volume; that
	// isolation is the point of the serving layer.
	sink *telemetry.Sink
	adm  *admission

	// opLat lives on the FLEET sink under volmgr.op_ns.<name>: per-tenant
	// latency distributions side by side in one rollup, which is how an
	// operator reads a healthy tenant's p99 while a storm hits its neighbor.
	opLat  *telemetry.Histogram
	volOps *telemetry.Counter

	// lastHits/lastMisses are the rebalancer's per-window cache-stat cursors,
	// guarded by the rebalancer's own mutex.
	lastHits, lastMisses int64
}

var _ fsapi.FS = (*Volume)(nil)

func newVolume(m *Manager, name string, vcfg VolumeConfig) *Volume {
	sink := vcfg.Core.Telemetry
	if sink == nil {
		// Always a fresh private sink — the volmgr.qos.* instruments land
		// here even when the tenant opted its core out of telemetry.
		sink = telemetry.New()
	}
	qos := m.cfg.DefaultQoS
	if vcfg.QoS != nil {
		qos = *vcfg.QoS
	}
	v := &Volume{
		mgr:    m,
		name:   name,
		vcfg:   vcfg,
		blocks: vcfg.Blocks,
		state:  stateClosed,
		sink:   sink,
		opLat:  m.fleet.Histogram("volmgr.op_ns." + name),
		volOps: m.fleet.Counter("volmgr.ops." + name),
	}
	v.adm = newAdmission(qos, sink, m.telShed)
	return v
}

// mountLocked mounts the supervisor over the volume's device. Caller holds
// opmu's write side.
func (v *Volume) mountLocked() error {
	cfg := v.vcfg.Core
	if cfg.Telemetry == nil && !cfg.NoTelemetry {
		cfg.Telemetry = v.sink
	}
	sup, err := core.Mount(v.dev, cfg)
	if err != nil {
		return fmt.Errorf("volmgr: mount %q: %w", v.name, err)
	}
	v.sup = sup
	v.supAtomic.Store(sup)
	v.state = stateOpen
	open := v.mgr.open.Add(1)
	if budget := v.mgr.cfg.CacheBudgetBlocks; budget > 0 {
		// Seed an equal-share quota; the miss-driven rebalancer refines it.
		quota := budget / int(open)
		if quota < v.mgr.cfg.CacheMinPerVolume {
			quota = v.mgr.cfg.CacheMinPerVolume
		}
		sup.SetCacheBudget(quota)
		v.mgr.fleet.Gauge("volmgr.cache.quota." + v.name).Set(int64(quota))
	}
	return nil
}

// unmountedLocked records that the supervisor is gone. Caller holds opmu's
// write side and has already unmounted or killed v.sup.
func (v *Volume) unmountedLocked() {
	v.sup = nil
	v.supAtomic.Store(nil)
	v.mgr.open.Add(-1)
}

// supervisor returns the current supervisor without touching opmu (nil when
// not open). For lock-free observers; the operation path uses admit instead.
func (v *Volume) supervisor() *core.FS { return v.supAtomic.Load() }

// Name returns the volume's registered name.
func (v *Volume) Name() string { return v.name }

// Telemetry returns the volume's private sink.
func (v *Volume) Telemetry() *telemetry.Sink { return v.sink }

// Supervisor exposes the volume's core.FS for stats and experiment
// instrumentation; nil when the volume is not open.
func (v *Volume) Supervisor() *core.FS { return v.supervisor() }

// Device exposes the volume's backing device so fault-injection harnesses
// can arm blockdev fault plans against one tenant (the storm half of the
// multitenant experiment). The device persists across close/open cycles.
func (v *Volume) Device() *blockdev.Mem { return v.dev }

// Stats returns the supervisor's counters (zero value when not open).
func (v *Volume) Stats() core.Stats {
	if sup := v.supervisor(); sup != nil {
		return sup.Stats()
	}
	return core.Stats{}
}

// admit is the operation path's front door: lifecycle check, QoS admission,
// latency timing. On success the caller runs op against the returned
// supervisor and must call done (which releases in reverse order).
func (v *Volume) admit() (*core.FS, func(), error) {
	v.opmu.RLock()
	if v.state != stateOpen {
		destroyed := v.state == stateDestroyed
		v.opmu.RUnlock()
		if destroyed {
			return nil, nil, fmt.Errorf("volmgr: volume %q destroyed: %w", v.name, fserr.ErrNotExist)
		}
		return nil, nil, fmt.Errorf("volmgr: volume %q not open: %w", v.name, fserr.ErrInvalid)
	}
	if err := v.adm.enter(v.name); err != nil {
		v.opmu.RUnlock()
		return nil, nil, err
	}
	sup := v.sup
	v.volOps.Inc()
	t := telemetry.StartTimer(v.opLat)
	return sup, func() {
		t.Stop()
		v.adm.exit()
		v.opmu.RUnlock()
	}, nil
}

// --- fsapi.FS facade ---

// Mkdir implements fsapi.FS.
func (v *Volume) Mkdir(path string, perm uint16) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Mkdir(path, perm)
}

// Rmdir implements fsapi.FS.
func (v *Volume) Rmdir(path string) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Rmdir(path)
}

// Create implements fsapi.FS.
func (v *Volume) Create(path string, perm uint16) (fsapi.FD, error) {
	sup, done, err := v.admit()
	if err != nil {
		return -1, err
	}
	defer done()
	return sup.Create(path, perm)
}

// Open implements fsapi.FS.
func (v *Volume) Open(path string) (fsapi.FD, error) {
	sup, done, err := v.admit()
	if err != nil {
		return -1, err
	}
	defer done()
	return sup.Open(path)
}

// Close implements fsapi.FS.
func (v *Volume) Close(fd fsapi.FD) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Close(fd)
}

// ReadAt implements fsapi.FS.
func (v *Volume) ReadAt(fd fsapi.FD, off int64, n int) ([]byte, error) {
	sup, done, err := v.admit()
	if err != nil {
		return nil, err
	}
	defer done()
	return sup.ReadAt(fd, off, n)
}

// WriteAt implements fsapi.FS.
func (v *Volume) WriteAt(fd fsapi.FD, off int64, data []byte) (int, error) {
	sup, done, err := v.admit()
	if err != nil {
		return 0, err
	}
	defer done()
	return sup.WriteAt(fd, off, data)
}

// Truncate implements fsapi.FS.
func (v *Volume) Truncate(path string, size int64) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Truncate(path, size)
}

// Unlink implements fsapi.FS.
func (v *Volume) Unlink(path string) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Unlink(path)
}

// Rename implements fsapi.FS.
func (v *Volume) Rename(oldPath, newPath string) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Rename(oldPath, newPath)
}

// Link implements fsapi.FS.
func (v *Volume) Link(oldPath, newPath string) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Link(oldPath, newPath)
}

// Symlink implements fsapi.FS.
func (v *Volume) Symlink(target, linkPath string) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Symlink(target, linkPath)
}

// Readlink implements fsapi.FS.
func (v *Volume) Readlink(path string) (string, error) {
	sup, done, err := v.admit()
	if err != nil {
		return "", err
	}
	defer done()
	return sup.Readlink(path)
}

// Stat implements fsapi.FS.
func (v *Volume) Stat(path string) (fsapi.Stat, error) {
	sup, done, err := v.admit()
	if err != nil {
		return fsapi.Stat{}, err
	}
	defer done()
	return sup.Stat(path)
}

// Fstat implements fsapi.FS.
func (v *Volume) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	sup, done, err := v.admit()
	if err != nil {
		return fsapi.Stat{}, err
	}
	defer done()
	return sup.Fstat(fd)
}

// Readdir implements fsapi.FS.
func (v *Volume) Readdir(path string) ([]fsapi.DirEntry, error) {
	sup, done, err := v.admit()
	if err != nil {
		return nil, err
	}
	defer done()
	return sup.Readdir(path)
}

// SetPerm implements fsapi.FS.
func (v *Volume) SetPerm(path string, perm uint16) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.SetPerm(path, perm)
}

// Fsync implements fsapi.FS.
func (v *Volume) Fsync(fd fsapi.FD) error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Fsync(fd)
}

// Sync implements fsapi.FS.
func (v *Volume) Sync() error {
	sup, done, err := v.admit()
	if err != nil {
		return err
	}
	defer done()
	return sup.Sync()
}
