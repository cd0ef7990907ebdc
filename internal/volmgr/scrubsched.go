package volmgr

import (
	"sync"
	"sync/atomic"
)

// The shared scrub scheduler. Each volume's supervisor has a scrubber with
// no timer of its own. The manager's single loop sweeps the fleet every
// ScrubInterval, driving passes through a bounded worker pool, so
// background verification cost is a fleet knob — a thousand volumes scrub
// at pool parallelism, not with a thousand timers racing each other for IO.

// scrubWorkers bounds how many volumes one sweep scrubs concurrently.
const scrubWorkers = 2

// ScrubAll sweeps one scrub pass over every open volume using the shared
// worker pool and returns how many passes ran. Volumes mid-lifecycle-
// transition are skipped. If a sweep is already running the call returns 0
// immediately — sweeps never pile up behind a slow pass.
func (m *Manager) ScrubAll() int {
	select {
	case m.scrubbing <- struct{}{}:
	default:
		return 0
	}
	defer func() { <-m.scrubbing }()
	sem := make(chan struct{}, scrubWorkers)
	var wg sync.WaitGroup
	var passes atomic.Int64
	for _, v := range m.openVolumes() {
		v := v
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if v.tryScrub() {
				passes.Add(1)
				m.telScrubs.Inc()
			}
		}()
	}
	wg.Wait()
	return int(passes.Load())
}

// tryScrub runs one pass if the volume is open and idle enough to enter.
// The read lock excludes lifecycle transitions for the duration of the pass:
// a pass can trip a recovery on its own volume, and that recovery must not
// race an unmount.
func (v *Volume) tryScrub() bool {
	if !v.opmu.TryRLock() {
		return false
	}
	defer v.opmu.RUnlock()
	if v.state != stateOpen || v.sup == nil {
		return false
	}
	sc := v.sup.Scrubber()
	if sc == nil {
		return false
	}
	sc.RunOnce()
	return true
}
