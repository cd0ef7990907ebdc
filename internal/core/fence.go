package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/fserr"
)

// fencedDevice is the IO fence between a base instance and the device. A
// contained reboot "must reset the interactions with these components"
// (§4.1): before mounting the replacement instance, the supervisor raises
// the fence on the old instance's handle, so an operation abandoned by the
// watchdog (a frozen sync that wakes up mid-recovery, for example) can
// never write to the device the shadow and the new base are working from.
type fencedDevice struct {
	dev blockdev.Device
	// gen is the supervisor's device write generation, shared by every fence
	// the supervisor creates: each write through any base instance bumps it.
	// The warm replayer's validity check compares it against the value
	// captured when the replayer was retained — any base write since (journal
	// commit, checkpoint, cache eviction) changes bytes under the retained
	// overlay and invalidates it. May be nil (tests).
	gen *atomic.Uint64
	// touched accumulates the written block numbers for the region-scoped
	// recovery check: because every base-instance write funnels through a
	// fence, this set is a superset of everything that changed on the device
	// since it was last drained. May be nil (tests).
	touched *touchedSet
	off     atomic.Bool
}

var _ blockdev.Device = (*fencedDevice)(nil)

func newFence(dev blockdev.Device, gen *atomic.Uint64, touched *touchedSet) *fencedDevice {
	return &fencedDevice{dev: dev, gen: gen, touched: touched}
}

// raise cuts the old instance off from the device.
func (f *fencedDevice) raise() { f.off.Store(true) }

func (f *fencedDevice) guard(what string) error {
	if f.off.Load() {
		return fmt.Errorf("core: %s through fenced device handle: %w", what, fserr.ErrIO)
	}
	return nil
}

// ReadBlock implements blockdev.Device.
func (f *fencedDevice) ReadBlock(blk uint32) ([]byte, error) {
	if err := f.guard("read"); err != nil {
		return nil, err
	}
	return f.dev.ReadBlock(blk)
}

// WriteBlock implements blockdev.Device. The generation bumps and the
// touched set records before the write reaches the device, so a failed
// write can only over-invalidate the warm replayer and over-scope the next
// check, never the unsound direction.
func (f *fencedDevice) WriteBlock(blk uint32, data []byte) error {
	if err := f.guard("write"); err != nil {
		return err
	}
	if f.gen != nil {
		f.gen.Add(1)
	}
	if f.touched != nil {
		f.touched.record(blk)
	}
	return f.dev.WriteBlock(blk, data)
}

// ReadVec implements blockdev.Device: one guard, one forwarded call.
func (f *fencedDevice) ReadVec(runs []blockdev.Run) error {
	if err := f.guard("run read"); err != nil {
		return err
	}
	return f.dev.ReadVec(runs)
}

// WriteVec implements blockdev.Device: one guard and one forwarded call,
// with the generation and the touched set covering every block of every run
// before any of them reaches the device, as WriteBlock does for one block.
// A run torn by a failure mid-way has still recorded all its blocks, so the
// next scoped check examines the ones that did land.
func (f *fencedDevice) WriteVec(runs []blockdev.Run) error {
	if err := f.guard("run write"); err != nil {
		return err
	}
	var n uint64
	for _, r := range runs {
		n += uint64(len(r.Bufs))
		if f.touched != nil {
			for i := range r.Bufs {
				f.touched.record(r.Blk + uint32(i))
			}
		}
	}
	if f.gen != nil {
		f.gen.Add(n)
	}
	return f.dev.WriteVec(runs)
}

// NumBlocks implements blockdev.Device.
func (f *fencedDevice) NumBlocks() uint32 { return f.dev.NumBlocks() }

// Flush implements blockdev.Device.
func (f *fencedDevice) Flush() error {
	if err := f.guard("flush"); err != nil {
		return err
	}
	return f.dev.Flush()
}
