package blockdev

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/disklayout"
	"repro/internal/fserr"
	"repro/internal/telemetry"
)

// leafDev is a device at the bottom of a stack, whose counters say what
// reached it.
type leafDev interface {
	Device
	Stats() *Stats
}

// wrapperCase builds one device stack over a fresh 64-block leaf. readOnly
// stacks must reject written runs; faults is false where the leaf has no
// fault plan.
type wrapperCase struct {
	name     string
	readOnly bool
	faults   bool
	build    func(t *testing.T) (top Device, leaf leafDev, mem *Mem)
}

// overMem returns a build function that wraps a fresh Mem leaf with wrap.
func overMem(wrap func(t *testing.T, m *Mem) Device) func(t *testing.T) (Device, leafDev, *Mem) {
	return func(t *testing.T) (Device, leafDev, *Mem) {
		m := NewMem(64)
		return wrap(t, m), m, m
	}
}

var wrapperCases = []wrapperCase{
	{name: "Mem", faults: true, build: overMem(func(t *testing.T, m *Mem) Device { return m })},
	{name: "File", build: func(t *testing.T) (Device, leafDev, *Mem) {
		f, err := OpenFile(filepath.Join(t.TempDir(), "img"), 64, true)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f, f, nil
	}},
	{name: "ReadOnly", readOnly: true, faults: true, build: overMem(func(t *testing.T, m *Mem) Device {
		return NewReadOnly(m)
	})},
	{name: "Overlay", readOnly: true, faults: true, build: overMem(func(t *testing.T, m *Mem) Device {
		// The override sits outside the run, so the run reaches the leaf whole.
		return NewOverlay(m, map[uint32][]byte{0: block(0xEE)})
	})},
	{name: "Prefetched", readOnly: true, faults: true, build: overMem(func(t *testing.T, m *Mem) Device {
		p := NewPrefetchedRanges(m, 1, nil) // no crew work: every read is the consumer's
		t.Cleanup(p.Release)
		return p
	})},
	{name: "Instrumented", faults: true, build: overMem(func(t *testing.T, m *Mem) Device {
		return Instrument(m, telemetry.New(), "test")
	})},
	{name: "QueueDevice", faults: true, build: overMem(func(t *testing.T, m *Mem) Device {
		q := NewQueue(m, 2, 8)
		t.Cleanup(q.Close)
		return q.Device()
	})},
}

// testRun is the 16-block run [8, 24) with one distinct fill per block.
func testRun() Run {
	r := Run{Blk: 8, Bufs: make([][]byte, 16)}
	for i := range r.Bufs {
		r.Bufs[i] = block(byte(0x10 + i))
	}
	return r
}

// emptyRun is a run shaped like testRun with zeroed buffers to read into.
func emptyRun() Run {
	r := Run{Blk: 8, Bufs: make([][]byte, 16)}
	for i := range r.Bufs {
		r.Bufs[i] = make([]byte, disklayout.BlockSize)
	}
	return r
}

// TestEveryWrapperForwardsRuns drives one 16-block run through every device
// and wrapper: it must reach the leaf as one call moving 16 blocks, and a
// read-only stack must reject the written run without touching the leaf.
func TestEveryWrapperForwardsRuns(t *testing.T) {
	for _, c := range wrapperCases {
		t.Run(c.name, func(t *testing.T) {
			top, leaf, _ := c.build(t)
			want := testRun()
			if err := WriteVecPerBlock(leaf, []Run{want}); err != nil {
				t.Fatal(err)
			}

			before := leaf.Stats().Snapshot()
			got := emptyRun()
			if err := top.ReadVec([]Run{got}); err != nil {
				t.Fatal(err)
			}
			after := leaf.Stats().Snapshot()
			if calls, blocks := after.ReadCalls-before.ReadCalls, after.Reads-before.Reads; calls != 1 || blocks != 16 {
				t.Errorf("read run reached the leaf as %d calls moving %d blocks, want 1 call moving 16", calls, blocks)
			}
			for i := range want.Bufs {
				if !bytes.Equal(got.Bufs[i], want.Bufs[i]) {
					t.Errorf("block %d of the read run differs from what was written", want.Blk+uint32(i))
				}
			}

			before = after
			err := top.WriteVec([]Run{testRun()})
			after = leaf.Stats().Snapshot()
			if c.readOnly {
				if !errors.Is(err, fserr.ErrReadOnly) {
					t.Errorf("written run through a read-only stack: %v, want ErrReadOnly", err)
				}
				if after.WriteCalls != before.WriteCalls {
					t.Error("a rejected written run reached the leaf")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if calls, blocks := after.WriteCalls-before.WriteCalls, after.Writes-before.Writes; calls != 1 || blocks != 16 {
				t.Errorf("written run reached the leaf as %d calls moving %d blocks, want 1 call moving 16", calls, blocks)
			}
		})
	}
}

// TestEveryWrapperKeepsPerBlockFaults pins the fault surface of a run: the
// deterministic per-block maps of the leaf's FaultPlan fire for the one
// block they name, whichever wrapper the run passes through. Each map gets a
// fresh stack, since Prefetched caches what it has read.
func TestEveryWrapperKeepsPerBlockFaults(t *testing.T) {
	const badSector, flipped = 13, 17
	faulty := func(t *testing.T, c wrapperCase, plan *FaultPlan) (Device, Run) {
		top, _, mem := c.build(t)
		want := testRun()
		if err := mem.WriteVec([]Run{want}); err != nil {
			t.Fatal(err)
		}
		mem.SetFaults(plan)
		return top, want
	}
	for _, c := range wrapperCases {
		if !c.faults {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			plan := NewFaultPlan(1)
			plan.CorruptBlocks = map[uint32]bool{flipped: true}
			top, want := faulty(t, c, plan)
			got := emptyRun()
			if err := top.ReadVec([]Run{got}); err != nil {
				t.Fatal(err)
			}
			for i := range want.Bufs {
				blk := want.Blk + uint32(i)
				if same := bytes.Equal(got.Bufs[i], want.Bufs[i]); same == (blk == flipped) {
					t.Errorf("block %d: content intact = %v, want %v", blk, same, blk != flipped)
				}
			}

			plan = NewFaultPlan(1)
			plan.ReadErrBlocks = map[uint32]bool{badSector: true}
			top, _ = faulty(t, c, plan)
			if err := top.ReadVec([]Run{emptyRun()}); !errors.Is(err, fserr.ErrIO) {
				t.Errorf("run over bad sector %d: %v, want ErrIO", badSector, err)
			}
		})
	}
}
