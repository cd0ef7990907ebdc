package blockdev

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fserr"
)

// TestPrefetchedServesAndCaches: blocks come back with the device's content,
// and a block read twice hits the device once.
func TestPrefetchedServesAndCaches(t *testing.T) {
	dev := NewMem(64)
	buf := make([]byte, 4096)
	buf[0] = 0xAB
	if err := dev.WriteBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	p := NewPrefetched(dev, 2)
	defer p.Release()
	for i := 0; i < 2; i++ {
		b, err := p.ReadBlock(7)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != 0xAB {
			t.Fatalf("read %d: got %x", i, b[0])
		}
	}
	// Writes and flushes are rejected: the view is frozen by contract.
	if err := p.WriteBlock(1, buf); err == nil {
		t.Error("write through prefetched view succeeded")
	}
	if err := p.Flush(); err == nil {
		t.Error("flush through prefetched view succeeded")
	}
}

// TestPrefetchedReleaseOnEarlyAbort is the regression test for the pipeline
// abort leak: Release fired while the worker crew is mid-device (the recovery
// pipeline bailing out of replay early) must stop and join every worker and
// drop the cache, even with a slow device keeping workers parked in reads.
func TestPrefetchedReleaseOnEarlyAbort(t *testing.T) {
	dev := NewMem(4096)
	plan := NewFaultPlan(1)
	plan.ReadLatency = 200 * time.Microsecond
	dev.SetFaults(plan)

	before := runtime.NumGoroutine()
	p := NewPrefetched(dev, 8)
	// Abort early: the crew has had no chance to finish 4096 slow reads.
	p.Release()

	if n := p.Cached(); n != 0 {
		t.Errorf("%d blocks still pinned after Release", n)
	}
	// The crew must be joined, not leaked. Allow the runtime a moment to
	// retire the exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after Release", before, after)
	}
}

// TestPrefetchedNoRepinAfterRelease closes the race the stopped-flag check
// under p.mu exists for: a consumer read in flight across Release must not
// re-insert its block into the cleared cache and pin it forever.
func TestPrefetchedNoRepinAfterRelease(t *testing.T) {
	dev := NewMem(256)
	p := NewPrefetched(dev, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := p.ReadBlock(uint32((i*7 + w) % 256)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	p.Release()
	// Readers keep hammering the released cache for a while; nothing they do
	// may repopulate it.
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := p.Cached(); n != 0 {
		t.Errorf("%d blocks re-pinned by in-flight reads after Release", n)
	}
}

// TestFaultPlanReadErrBlocks: per-block deterministic read errors fire on
// exactly the listed blocks, every time, and leave the rest alone.
func TestFaultPlanReadErrBlocks(t *testing.T) {
	dev := NewMem(16)
	plan := NewFaultPlan(99)
	plan.ReadErrBlocks = map[uint32]bool{3: true, 9: true}
	dev.SetFaults(plan)
	for i := 0; i < 3; i++ { // deterministic: not a probability roll
		for blk := uint32(0); blk < 16; blk++ {
			_, err := dev.ReadBlock(blk)
			if want := plan.ReadErrBlocks[blk]; want && err == nil {
				t.Errorf("pass %d: block %d read succeeded, want error", i, blk)
			} else if !want && err != nil {
				t.Errorf("pass %d: block %d: %v", i, blk, err)
			}
		}
	}
	if got := dev.Stats().ReadErrors.Load(); got != 6 {
		t.Errorf("ReadErrors = %d, want 6", got)
	}
	// Writes are unaffected.
	if err := dev.WriteBlock(3, make([]byte, 4096)); err != nil {
		t.Errorf("write to read-err block: %v", err)
	}
	if _, err := dev.ReadBlock(3); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("injected error not fserr.ErrIO: %v", err)
	}
}

// TestPrefetchedCoalescesRangedReads is the regression test for per-block
// prefetch: the crew must pull each claim-sized span in one ranged device
// call, so filling a 128-block device costs NumBlocks/prefetchChunk read
// calls, not NumBlocks. (Before coalescing, every prefetched block was a
// separate ReadAt-equivalent, visible as 128 ReadCalls here.)
func TestPrefetchedCoalescesRangedReads(t *testing.T) {
	const blocks = 128
	dev := NewMem(blocks)
	for blk := uint32(0); blk < blocks; blk++ {
		buf := make([]byte, 4096)
		buf[0] = byte(blk)
		if err := dev.WriteBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
	}
	before := dev.Stats().ReadCalls.Load()
	p := NewPrefetched(dev, 2)
	p.done.Wait() // crew has drained every span
	calls := dev.Stats().ReadCalls.Load() - before
	want := int64(blocks / prefetchChunk)
	if calls != want {
		t.Errorf("prefetch of %d blocks used %d device read calls, want %d (one per %d-block span)",
			blocks, calls, want, prefetchChunk)
	}
	if got := dev.Stats().Reads.Load(); got < blocks {
		t.Errorf("blocks transferred = %d, want >= %d", got, blocks)
	}
	// The cache really holds the device's content: spot-check, then confirm
	// no further device calls were needed.
	for _, blk := range []uint32{0, 31, 32, 127} {
		b, err := p.ReadBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != byte(blk) {
			t.Errorf("block %d content = %x, want %x", blk, b[0], byte(blk))
		}
	}
	if got := dev.Stats().ReadCalls.Load() - before; got != calls {
		t.Errorf("cache hits touched the device: calls went %d -> %d", calls, got)
	}
	p.Release()
}

// TestPrefetchedRangesReadsOnlyTheRanges is the scoped recovery plan's
// contract: the crew's device reads stay inside the ranges it was given (one
// ranged call per claim-sized span of each range), blocks inside them are
// then served from memory, and a read outside them still passes through to
// the device.
func TestPrefetchedRangesReadsOnlyTheRanges(t *testing.T) {
	const blocks = 4096
	dev := NewMem(blocks)
	for _, blk := range []uint32{0, 5, 104, 2000, 4095} {
		buf := make([]byte, 4096)
		buf[0] = byte(blk)
		if err := dev.WriteBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
	}
	ranges := []BlockRange{
		{Start: 0, Len: 1},     // 1 span
		{Start: 100, Len: 40},  // 2 spans: 32 + 8
		{Start: 4090, Len: 50}, // clipped to the device's last 6 blocks: 1 span
		{Start: 9000, Len: 4},  // wholly past the end: dropped
	}
	const wantCalls, wantBlocks = 4, 1 + 40 + 6
	before := dev.Stats().Snapshot()
	p := NewPrefetchedRanges(dev, 3, ranges)
	defer p.Release()
	p.done.Wait()
	crew := dev.Stats().Snapshot()
	if calls, reads := crew.ReadCalls-before.ReadCalls, crew.Reads-before.Reads; calls != wantCalls || reads != wantBlocks {
		t.Errorf("crew made %d read calls for %d blocks, want %d calls for %d blocks",
			calls, reads, wantCalls, wantBlocks)
	}
	if got := p.Cached(); got != wantBlocks {
		t.Errorf("cache holds %d blocks, want %d", got, wantBlocks)
	}
	for _, blk := range []uint32{0, 104, 4095} {
		if b, err := p.ReadBlock(blk); err != nil || b[0] != byte(blk) {
			t.Errorf("block %d inside the ranges: (%x, %v)", blk, b[0], err)
		}
	}
	if got := dev.Stats().ReadCalls.Load(); got != crew.ReadCalls {
		t.Errorf("reads inside the ranges went to the device: %d calls after the crew's %d", got, crew.ReadCalls)
	}
	for i, blk := range []uint32{5, 2000, 5} {
		if b, err := p.ReadBlock(blk); err != nil || b[0] != byte(blk) {
			t.Errorf("block %d outside the ranges: (%x, %v)", blk, b[0], err)
		}
		// The first read of a block passes through; the repeat is a hit.
		if got, want := dev.Stats().ReadCalls.Load()-crew.ReadCalls, int64(min(i+1, 2)); got != want {
			t.Errorf("after %d reads outside the ranges the device saw %d calls, want %d", i+1, got, want)
		}
	}
}

// TestPrefetchedReadsEachBlockOnce pins the in-flight set: with the crew and
// several consumers (single blocks and runs) all asking for the same blocks
// of a slow device at once, every block is read from the device exactly
// once, and every consumer gets its content.
func TestPrefetchedReadsEachBlockOnce(t *testing.T) {
	const blocks = 256
	dev := NewMem(blocks)
	for blk := uint32(0); blk < blocks; blk++ {
		buf := make([]byte, 4096)
		buf[0] = byte(blk)
		if err := dev.WriteBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
	}
	plan := NewFaultPlan(1)
	plan.ReadLatency = 100 * time.Microsecond
	dev.SetFaults(plan)
	before := dev.Stats().Reads.Load()
	p := NewPrefetched(dev, 3)
	defer p.Release()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < blocks; i += 8 {
				blk := uint32((i*5 + w*64) % blocks)
				if w%2 == 0 {
					b, err := p.ReadBlock(blk)
					if err != nil || b[0] != byte(blk) {
						t.Errorf("block %d: (%x, %v)", blk, b[0], err)
					}
					continue
				}
				r := Run{Blk: blk &^ 7, Bufs: make([][]byte, 8)}
				for k := range r.Bufs {
					r.Bufs[k] = make([]byte, 4096)
				}
				if err := p.ReadVec([]Run{r}); err != nil {
					t.Error(err)
				}
				for k, b := range r.Bufs {
					if b[0] != byte(r.Blk+uint32(k)) {
						t.Errorf("run block %d: %x", r.Blk+uint32(k), b[0])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	p.done.Wait()
	if got := dev.Stats().Reads.Load() - before; got != blocks {
		t.Errorf("device read %d blocks for a %d-block device, want each exactly once", got, blocks)
	}
}
