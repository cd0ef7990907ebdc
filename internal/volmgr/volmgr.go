// Package volmgr is the multi-volume serving layer: one supervisor process
// hosting many independent RAE-supervised filesystem instances (volumes) over
// a shared device pool, with the isolation disciplines that make "many
// tenants, one process" safe:
//
//   - Fault isolation. Every volume is a private core.FS with its own
//     recovery fence, telemetry sink, and fault-injection registry, so a
//     recovery on volume A — gate closed, operations draining, shadow
//     replaying — never blocks an operation on volume B. Nothing per-volume
//     is process-global.
//   - Cache budgeting. The volumes' buffer caches share one fleet-wide
//     clean-buffer budget, carved into per-volume quotas by a rebalancer
//     that observes per-window miss pressure and moves capacity from cold
//     tenants to hot ones (cache.BufferCache.SetCleanBudget is the
//     donation/reclaim primitive; quotas survive contained reboots via
//     core.FS.SetCacheBudget). pFSCK's lesson — resource-aware scaling of
//     checker crews — applied to cache capacity.
//   - Admission control and QoS. Each volume's operation path runs behind a
//     token bucket (rate + burst) and a queue-depth cap; overload is shed
//     with fserr.ErrOverloaded before it reaches the filesystem, so one
//     tenant's burst degrades that tenant, not the fleet.
//   - Shared verification budget. Scrub passes are scheduled by the manager
//     over one bounded worker pool instead of one ticker per volume
//     (core.Config.ExternalScrub), so background checking cost is fleet-
//     controlled.
//   - Fleet telemetry. Per-volume sinks stay isolated; the manager keeps its
//     own fleet sink (volmgr.* gauges, per-tenant op latency histograms) and
//     FleetSnapshot merges everything into one rollup (telemetry.Merge) that
//     cmd/fsstats renders.
//
// Lifecycle is concurrent-safe: Create, Open, Close, and Destroy may race
// with each other and with operations on other volumes; transitions drain
// the target volume's in-flight operations through a per-volume RWMutex
// before they act.
package volmgr

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fserr"
	"repro/internal/mkfs"
	"repro/internal/telemetry"
)

// Config tunes the manager.
type Config struct {
	// PoolBlocks is the shared device pool's capacity in blocks; volume
	// creation draws from it and destruction returns to it. Required.
	PoolBlocks uint32
	// CacheBudgetBlocks is the fleet-wide clean-buffer budget shared by all
	// open volumes' buffer caches. 0 disables budgeting: every volume keeps
	// its own configured cache size and the rebalancer never runs.
	CacheBudgetBlocks int
	// CacheMinPerVolume is the quota floor no rebalance takes a volume below
	// (default 64 blocks). A tenant that goes idle donates capacity but is
	// never starved of its working minimum.
	CacheMinPerVolume int
	// RebalanceInterval is the period of the background quota rebalancer;
	// 0 leaves rebalancing to explicit RebalanceOnce calls.
	RebalanceInterval time.Duration
	// ScrubInterval is the period of the shared scrub scheduler: every
	// interval, each open volume gets one scrub pass, executed by a bounded
	// worker pool rather than per-volume tickers. 0 disables scheduling.
	ScrubInterval time.Duration
	// ScrubWorkers bounds how many volumes scrub concurrently (default 2).
	ScrubWorkers int
	// DefaultQoS applies to volumes whose VolumeConfig leaves QoS nil. The
	// zero value admits everything.
	DefaultQoS QoSConfig
	// Telemetry is the fleet sink for volmgr.* instruments. Nil creates a
	// private sink — never the process-global default, which per-volume
	// isolation forbids sharing implicitly.
	Telemetry *telemetry.Sink
}

func (c *Config) fill() error {
	if c.PoolBlocks == 0 {
		return fmt.Errorf("volmgr: PoolBlocks is required: %w", fserr.ErrInvalid)
	}
	if c.CacheMinPerVolume <= 0 {
		c.CacheMinPerVolume = 64
	}
	if c.ScrubWorkers <= 0 {
		c.ScrubWorkers = 2
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.New()
	}
	return nil
}

// ServingVolumeBlocks is the per-tenant device size (32 MiB) the serving
// binaries give every volume of their in-memory fleet.
const ServingVolumeBlocks = 8192

// VolumeConfig parameterizes one volume.
type VolumeConfig struct {
	// Blocks is the volume's device size (default 16384 = 64 MiB).
	Blocks uint32
	// Format configures mkfs for Create (ignored by Open).
	Format mkfs.Options
	// Core configures the volume's supervisor. Telemetry nil gets a fresh
	// per-volume sink (never the process-global default). Base.Injector, if
	// set, must not be shared between volumes: the registry is the per-volume
	// bug surface, and sharing one would cross-contaminate firing history and
	// probability streams.
	Core core.Config
	// QoS overrides the manager's DefaultQoS for this volume; nil inherits.
	QoS *QoSConfig
}

// Manager hosts the fleet. Create one with New, shut it down with Shutdown.
type Manager struct {
	cfg   Config
	pool  *DevicePool
	fleet *telemetry.Sink

	mu   sync.RWMutex
	vols map[string]*Volume
	// open counts mounted volumes, maintained by mountLocked/unmountedLocked
	// so gauge refreshes and quota seeding never touch per-volume locks.
	open atomic.Int64

	stop     chan struct{}
	bg       sync.WaitGroup
	stopOnce sync.Once

	telVolumes    *telemetry.Gauge
	telRecovering *telemetry.Gauge
	telPoolUsed   *telemetry.Gauge
	telPoolFree   *telemetry.Gauge
	telShed       *telemetry.Counter
	telScrubs     *telemetry.Counter

	rebal     rebalancer
	scrubbing chan struct{} // semaphore: one fleet scrub sweep at a time
}

// New creates a manager and starts its background loops (rebalancer, scrub
// scheduler) as configured.
func New(cfg Config) (*Manager, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:       cfg,
		pool:      NewDevicePool(cfg.PoolBlocks),
		fleet:     cfg.Telemetry,
		vols:      make(map[string]*Volume),
		stop:      make(chan struct{}),
		scrubbing: make(chan struct{}, 1),
	}
	m.telVolumes = m.fleet.Gauge("volmgr.volumes")
	m.telRecovering = m.fleet.Gauge("volmgr.recovering")
	m.telPoolUsed = m.fleet.Gauge("volmgr.pool.used_blocks")
	m.telPoolFree = m.fleet.Gauge("volmgr.pool.free_blocks")
	m.telShed = m.fleet.Counter("volmgr.qos.shed")
	m.telScrubs = m.fleet.Counter("volmgr.scrub.passes")
	m.rebal.init(m)
	if cfg.RebalanceInterval > 0 && cfg.CacheBudgetBlocks > 0 {
		m.bg.Add(1)
		go m.rebalanceLoop()
	}
	if cfg.ScrubInterval > 0 {
		m.bg.Add(1)
		go m.scrubLoop()
	}
	return m, nil
}

// Telemetry returns the fleet sink (volmgr.* instruments only; per-volume
// instruments live on each volume's own sink).
func (m *Manager) Telemetry() *telemetry.Sink { return m.fleet }

// Pool returns the shared device pool (for capacity inspection).
func (m *Manager) Pool() *DevicePool { return m.pool }

// Create allocates a device from the pool, formats it, mounts a supervised
// filesystem over it, and registers the volume under name. The returned
// volume is open and serving.
func (m *Manager) Create(name string, vcfg VolumeConfig) (*Volume, error) {
	if name == "" {
		return nil, fmt.Errorf("volmgr: empty volume name: %w", fserr.ErrInvalid)
	}
	if vcfg.Blocks == 0 {
		vcfg.Blocks = 16384
	}
	v, err := m.register(name, vcfg)
	if err != nil {
		return nil, err
	}
	// v.opmu is held: every other goroutine that finds v in the map blocks
	// until the mount completes or the registration is rolled back.
	defer v.opmu.Unlock()
	dev, err := m.pool.Allocate(vcfg.Blocks)
	if err != nil {
		m.unregister(name)
		return nil, err
	}
	if _, err := mkfs.Format(dev, vcfg.Format); err != nil {
		m.pool.Release(vcfg.Blocks)
		m.unregister(name)
		return nil, fmt.Errorf("volmgr: format %q: %w", name, err)
	}
	v.dev = dev
	if err := v.mountLocked(); err != nil {
		m.pool.Release(vcfg.Blocks)
		m.unregister(name)
		return nil, err
	}
	m.updateGauges()
	m.fleet.Event("volume", "created %q (%d blocks)", name, vcfg.Blocks)
	return v, nil
}

// register inserts a pending volume under name with its lifecycle lock held.
func (m *Manager) register(name string, vcfg VolumeConfig) (*Volume, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vols[name]; ok {
		return nil, fmt.Errorf("volmgr: volume %q: %w", name, fserr.ErrExist)
	}
	v := newVolume(m, name, vcfg)
	v.opmu.Lock()
	m.vols[name] = v
	return v, nil
}

func (m *Manager) unregister(name string) {
	m.mu.Lock()
	delete(m.vols, name)
	m.mu.Unlock()
}

// Get returns the registered volume, open or closed.
func (m *Manager) Get(name string) (*Volume, error) {
	m.mu.RLock()
	v, ok := m.vols[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("volmgr: volume %q: %w", name, fserr.ErrNotExist)
	}
	return v, nil
}

// Open remounts a closed volume over its existing device contents.
func (m *Manager) Open(name string) (*Volume, error) {
	v, err := m.Get(name)
	if err != nil {
		return nil, err
	}
	v.opmu.Lock()
	defer v.opmu.Unlock()
	switch v.state {
	case stateOpen:
		return nil, fmt.Errorf("volmgr: volume %q already open: %w", name, fserr.ErrBusy)
	case stateDestroyed:
		return nil, fmt.Errorf("volmgr: volume %q: %w", name, fserr.ErrNotExist)
	}
	if err := v.mountLocked(); err != nil {
		return nil, err
	}
	m.updateGauges()
	m.fleet.Event("volume", "opened %q", name)
	return v, nil
}

// Close drains the volume's in-flight operations, unmounts its supervisor
// (sync + scrubber stop), and keeps the device and registration so Open can
// bring it back.
func (m *Manager) Close(name string) error {
	v, err := m.Get(name)
	if err != nil {
		return err
	}
	v.opmu.Lock()
	defer v.opmu.Unlock()
	if v.state != stateOpen {
		return fmt.Errorf("volmgr: volume %q not open: %w", name, fserr.ErrInvalid)
	}
	err = v.sup.Unmount()
	v.unmountedLocked()
	v.state = stateClosed
	m.updateGauges()
	m.fleet.Event("volume", "closed %q", name)
	return err
}

// Destroy removes the volume entirely: drains and unmounts if open, releases
// its blocks back to the pool, and unregisters the name. Data is gone.
func (m *Manager) Destroy(name string) error {
	v, err := m.Get(name)
	if err != nil {
		return err
	}
	v.opmu.Lock()
	if v.state == stateDestroyed {
		v.opmu.Unlock()
		return fmt.Errorf("volmgr: volume %q: %w", name, fserr.ErrNotExist)
	}
	var uerr error
	if v.state == stateOpen {
		// Best-effort clean unmount; a volume mid-corruption still destroys.
		if uerr = v.sup.Unmount(); uerr != nil {
			v.sup.Kill()
		}
		v.unmountedLocked()
	}
	v.state = stateDestroyed
	v.opmu.Unlock()
	m.mu.Lock()
	// The entry may already be gone if a racing Destroy lost; the state check
	// above makes the release below happen exactly once.
	delete(m.vols, name)
	m.mu.Unlock()
	m.pool.Release(v.blocks)
	m.updateGauges()
	m.fleet.Event("volume", "destroyed %q (%d blocks returned)", name, v.blocks)
	return uerr
}

// Volumes returns the registered volume names in sorted order.
func (m *Manager) Volumes() []string {
	m.mu.RLock()
	names := make([]string, 0, len(m.vols))
	for name := range m.vols {
		names = append(names, name)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	return names
}

// openVolumes snapshots the currently registered volumes (any state; callers
// acquire per-volume locks and re-check state themselves).
func (m *Manager) openVolumes() []*Volume {
	m.mu.RLock()
	out := make([]*Volume, 0, len(m.vols))
	for _, v := range m.vols {
		out = append(out, v)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// updateGauges refreshes the fleet-level gauges: volume count, volumes
// currently inside a recovery, pool occupancy.
func (m *Manager) updateGauges() {
	var open, recovering int64
	for _, v := range m.openVolumes() {
		if sup := v.supervisor(); sup != nil {
			open++
			if sup.Recovering() {
				recovering++
			}
		}
	}
	m.telVolumes.Set(open)
	m.telRecovering.Set(recovering)
	m.telPoolUsed.Set(int64(m.pool.Used()))
	m.telPoolFree.Set(int64(m.pool.Free()))
}

// FleetSnapshot refreshes the fleet gauges and merges the fleet sink with
// every volume's sink into one rollup (telemetry.Merge): layer counters sum
// across tenants, histograms merge bucket-exactly, and the volmgr.* fleet
// instruments ride along.
func (m *Manager) FleetSnapshot() telemetry.Snapshot {
	m.updateGauges()
	snaps := []telemetry.Snapshot{m.fleet.Snapshot()}
	for _, v := range m.openVolumes() {
		snaps = append(snaps, v.sink.Snapshot())
	}
	return telemetry.Merge(snaps...)
}

// Shutdown stops the background loops and closes every open volume. The
// manager must not be used afterwards. Returns the first unmount error.
func (m *Manager) Shutdown() error {
	m.stopOnce.Do(func() { close(m.stop) })
	m.bg.Wait()
	var first error
	for _, v := range m.openVolumes() {
		if v.supervisor() == nil {
			continue
		}
		if err := m.Close(v.name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *Manager) rebalanceLoop() {
	defer m.bg.Done()
	tick := time.NewTicker(m.cfg.RebalanceInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.RebalanceOnce()
		}
	}
}

func (m *Manager) scrubLoop() {
	defer m.bg.Done()
	tick := time.NewTicker(m.cfg.ScrubInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.ScrubAll()
		}
	}
}
