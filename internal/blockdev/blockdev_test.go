package blockdev

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/disklayout"
	"repro/internal/fserr"
)

func block(fill byte) []byte {
	b := make([]byte, disklayout.BlockSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestMemReadWriteRoundTrip(t *testing.T) {
	d := NewMem(16)
	want := block(0xAB)
	if err := d.WriteBlock(3, want); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	got, err := d.ReadBlock(3)
	if err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read data differs from written data")
	}
	// Unwritten blocks read as zeros.
	got, err = d.ReadBlock(4)
	if err != nil {
		t.Fatalf("ReadBlock(4): %v", err)
	}
	if !bytes.Equal(got, make([]byte, disklayout.BlockSize)) {
		t.Error("unwritten block is not zero-filled")
	}
}

func TestMemBounds(t *testing.T) {
	d := NewMem(4)
	if _, err := d.ReadBlock(4); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("read past end: %v, want ErrIO", err)
	}
	if err := d.WriteBlock(4, block(1)); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("write past end: %v, want ErrIO", err)
	}
	if err := d.WriteBlock(0, []byte{1, 2, 3}); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("short write: %v, want ErrInvalid", err)
	}
}

func TestMemWriteIsolation(t *testing.T) {
	d := NewMem(4)
	buf := block(0x11)
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 0x99 // mutate caller's buffer after the write
	got, _ := d.ReadBlock(0)
	if got[0] != 0x11 {
		t.Error("device aliases the caller's write buffer")
	}
	got[1] = 0x99 // mutate the read result
	got2, _ := d.ReadBlock(0)
	if got2[1] != 0x11 {
		t.Error("device aliases the read result buffer")
	}
}

func TestMemConcurrentAccess(t *testing.T) {
	d := NewMem(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				blk := uint32((g*100 + i) % 64)
				_ = d.WriteBlock(blk, block(byte(g)))
				if _, err := d.ReadBlock(blk); err != nil {
					t.Errorf("concurrent read: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMemStats(t *testing.T) {
	d := NewMem(8)
	_ = d.WriteBlock(0, block(1))
	_, _ = d.ReadBlock(0)
	_, _ = d.ReadBlock(0)
	_ = d.Flush()
	s := d.Stats().Snapshot()
	if s.Writes != 1 || s.Reads != 2 || s.Flushes != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFaultInjectedReadError(t *testing.T) {
	d := NewMem(8)
	p := NewFaultPlan(42)
	p.ReadErrProb = 1.0
	d.SetFaults(p)
	if _, err := d.ReadBlock(0); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("err = %v, want ErrIO", err)
	}
	d.SetFaults(nil)
	if _, err := d.ReadBlock(0); err != nil {
		t.Errorf("after clearing faults: %v", err)
	}
}

func TestFaultInjectedCorruption(t *testing.T) {
	d := NewMem(8)
	want := block(0x55)
	if err := d.WriteBlock(1, want); err != nil {
		t.Fatal(err)
	}
	p := NewFaultPlan(7)
	p.CorruptReadProb = 1.0
	d.SetFaults(p)
	got, err := d.ReadBlock(1)
	if err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	diff := 0
	for i := range got {
		if got[i] != want[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corrupted read differs in %d bytes, want exactly 1", diff)
	}
}

func TestFaultTargetedCorruptBlocks(t *testing.T) {
	d := NewMem(8)
	_ = d.WriteBlock(2, block(0x10))
	_ = d.WriteBlock(3, block(0x10))
	p := NewFaultPlan(1)
	p.CorruptBlocks = map[uint32]bool{2: true}
	d.SetFaults(p)
	got2, _ := d.ReadBlock(2)
	got3, _ := d.ReadBlock(3)
	if bytes.Equal(got2, block(0x10)) {
		t.Error("targeted block was not corrupted")
	}
	if !bytes.Equal(got3, block(0x10)) {
		t.Error("untargeted block was corrupted")
	}
}

func TestFaultTornWrite(t *testing.T) {
	d := NewMem(8)
	_ = d.WriteBlock(0, block(0xAA))
	p := NewFaultPlan(3)
	p.TornWriteProb = 1.0
	d.SetFaults(p)
	if err := d.WriteBlock(0, block(0xBB)); err != nil {
		t.Fatalf("torn write reported error: %v", err)
	}
	d.SetFaults(nil)
	got, _ := d.ReadBlock(0)
	if got[0] != 0xBB {
		t.Error("first half of torn write missing")
	}
	if got[disklayout.BlockSize-1] != 0xAA {
		t.Error("second half of torn write was persisted; want old contents")
	}
}

func TestFaultTornWriteOnFreshBlock(t *testing.T) {
	d := NewMem(8)
	p := NewFaultPlan(3)
	p.TornWriteProb = 1.0
	d.SetFaults(p)
	if err := d.WriteVec([]Run{{Blk: 1, Bufs: [][]byte{block(0xBB)}}}); err != nil {
		t.Fatalf("torn write reported error: %v", err)
	}
	d.SetFaults(nil)
	got, _ := d.ReadBlock(1)
	if got[0] != 0xBB || got[disklayout.BlockSize/2-1] != 0xBB {
		t.Error("first half of torn write missing")
	}
	if got[disklayout.BlockSize/2] != 0 || got[disklayout.BlockSize-1] != 0 {
		t.Error("second half of a torn write to a never-written block is not zero")
	}
}

// Overwriting a block reuses its buffer: a device write puts no fresh memory
// on the caller's path, on either the scalar or the vectored interface.
func TestOverwriteDoesNotAllocate(t *testing.T) {
	d := NewMem(8)
	data := block(7)
	runs := []Run{{Blk: 2, Bufs: [][]byte{data, data}}}
	_ = d.WriteBlock(1, data)
	_ = d.WriteVec(runs)
	if n := testing.AllocsPerRun(100, func() { _ = d.WriteBlock(1, data) }); n != 0 {
		t.Errorf("WriteBlock over a written block: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = d.WriteVec(runs) }); n != 0 {
		t.Errorf("WriteVec over written blocks: %v allocs, want 0", n)
	}
}

func TestSnapshotIndependence(t *testing.T) {
	d := NewMem(8)
	_ = d.WriteBlock(0, block(1))
	snap := d.Snapshot()
	_ = d.WriteBlock(0, block(2))
	got, _ := snap.ReadBlock(0)
	if got[0] != 1 {
		t.Error("snapshot observed later write")
	}
}

func TestCorruptBlockHelper(t *testing.T) {
	d := NewMem(8)
	_ = d.WriteBlock(5, block(0))
	if err := d.CorruptBlock(5, 10, 0xFF); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadBlock(5)
	if got[10] != 0xFF {
		t.Error("CorruptBlock had no effect")
	}
	if err := d.CorruptBlock(100, 0, 1); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("out-of-range CorruptBlock: %v", err)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	d := NewMem(8)
	_ = d.WriteBlock(0, block(9))
	ro := NewReadOnly(d)
	if got, err := ro.ReadBlock(0); err != nil || got[0] != 9 {
		t.Errorf("read through RO handle: %v", err)
	}
	if err := ro.WriteBlock(0, block(1)); !errors.Is(err, fserr.ErrReadOnly) {
		t.Errorf("write through RO handle: %v, want ErrReadOnly", err)
	}
	if err := ro.Flush(); !errors.Is(err, fserr.ErrReadOnly) {
		t.Errorf("flush through RO handle: %v, want ErrReadOnly", err)
	}
	if ro.NumBlocks() != 8 {
		t.Errorf("NumBlocks = %d", ro.NumBlocks())
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	d, err := OpenFile(path, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	want := block(0x5A)
	if err := d.WriteBlock(7, want); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen without create and check size discovery + contents.
	d2, err := OpenFile(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumBlocks() != 16 {
		t.Errorf("NumBlocks = %d, want 16", d2.NumBlocks())
	}
	got, err := d2.ReadBlock(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("file device round trip mismatch")
	}
	if _, err := d2.ReadBlock(99); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("read past end: %v", err)
	}
	if err := d2.WriteBlock(99, want); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("write past end: %v", err)
	}
}

func TestQueueReadWrite(t *testing.T) {
	d := NewMem(32)
	q := NewQueue(d, 4, 16)
	defer q.Close()
	want := block(0x77)
	if err := q.Write(9, want); err != nil {
		t.Fatal(err)
	}
	got, err := q.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("queue round trip mismatch")
	}
}

func TestQueueAsyncWritesAndFlush(t *testing.T) {
	d := NewMem(128)
	q := NewQueue(d, 4, 32)
	defer q.Close()
	var reqs []*Request
	for i := uint32(0); i < 100; i++ {
		reqs = append(reqs, q.WriteAsync(i, block(byte(i))))
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if err := r.Wait(); err != nil {
			t.Fatalf("async write %d: %v", i, err)
		}
	}
	for i := uint32(0); i < 100; i++ {
		got, err := d.ReadBlock(i)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("block %d after flush: %v", i, err)
		}
	}
	if d.Stats().Snapshot().Flushes != 1 {
		t.Error("flush did not reach the device")
	}
}

func TestQueueClosedRejects(t *testing.T) {
	d := NewMem(8)
	q := NewQueue(d, 2, 8)
	q.Close()
	q.Close() // double close is safe
	if err := q.Write(0, block(1)); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("write on closed queue: %v, want ErrIO", err)
	}
}

func TestQueueConcurrentClients(t *testing.T) {
	d := NewMem(256)
	q := NewQueue(d, 8, 64)
	defer q.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				blk := uint32(g*32 + i%32)
				if err := q.Write(blk, block(byte(g))); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := q.Read(blk); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDeterministicFaultStream(t *testing.T) {
	// Two fault plans with the same seed must corrupt identically.
	run := func() []byte {
		d := NewMem(8)
		_ = d.WriteBlock(0, block(0))
		p := NewFaultPlan(99)
		p.CorruptReadProb = 1.0
		d.SetFaults(p)
		got, _ := d.ReadBlock(0)
		return got
	}
	if !bytes.Equal(run(), run()) {
		t.Error("same seed produced different fault streams")
	}
}

func TestMemPropertyWriteThenRead(t *testing.T) {
	d := NewMem(64)
	f := func(blk uint32, fill byte) bool {
		blk %= 64
		if err := d.WriteBlock(blk, block(fill)); err != nil {
			return false
		}
		got, err := d.ReadBlock(blk)
		return err == nil && got[0] == fill && got[disklayout.BlockSize-1] == fill
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQueueConcurrentFlushHammer is the regression test for the WaitGroup
// reuse race in Flush: the old barrier Add-ed to a single shared WaitGroup
// while another goroutine's Flush was inside Wait, which the race detector
// flags and which could return a Flush before its epoch's writes landed.
// The epoch barrier must let many goroutines submit and flush concurrently,
// with every Flush covering all writes submitted before it. Run with -race.
func TestQueueConcurrentFlushHammer(t *testing.T) {
	d := NewMem(4096)
	q := NewQueue(d, 8, 64)
	defer q.Close()
	const workers = 8
	const rounds = 60
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint32(g * 512)
			for i := 0; i < rounds; i++ {
				blk := base + uint32(i%256)
				r := q.WriteAsync(blk, block(byte(i)))
				if err := q.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
				// A flush issued after the submit must imply completion.
				if err := r.Wait(); err != nil {
					t.Errorf("write after flush: %v", err)
					return
				}
				got, err := d.ReadBlock(blk)
				if err != nil || got[0] != byte(i) {
					t.Errorf("block %d not durable after flush: %v", blk, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
