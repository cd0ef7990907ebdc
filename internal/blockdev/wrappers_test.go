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
	{name: "Instrumented", faults: true, build: overMem(func(t *testing.T, m *Mem) Device {
		return Instrument(m, telemetry.New(), "test")
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
// fresh stack.
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

// TestWriteDoesNotRetainBuffer holds the Device ownership rule: once
// WriteBlock or WriteVec returns, the caller may reuse its buffers. Every
// writable device, and Mem tearing every write, is written through both
// calls; the caller then scribbles every buffer it passed, and the device
// must still return the bytes that were written.
func TestWriteDoesNotRetainBuffer(t *testing.T) {
	type retainCase struct {
		wrapperCase
		torn bool // every write persists only its first half
	}
	cases := []retainCase{{wrapperCase: wrapperCase{name: "MemTorn", build: overMem(func(t *testing.T, m *Mem) Device {
		p := NewFaultPlan(1)
		p.TornWriteProb = 1
		m.SetFaults(p)
		return m
	})}, torn: true}}
	for _, c := range wrapperCases {
		if !c.readOnly {
			cases = append(cases, retainCase{wrapperCase: c})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev, _, _ := c.build(t)
			one, run := block(0x5A), testRun()
			if err := dev.WriteBlock(3, one); err != nil {
				t.Fatal(err)
			}
			if err := dev.WriteVec([]Run{run}); err != nil {
				t.Fatal(err)
			}
			want := map[uint32][]byte{3: bytes.Clone(one)}
			for i, b := range run.Bufs {
				want[run.Blk+uint32(i)] = bytes.Clone(b)
			}
			if c.torn {
				for _, w := range want {
					clear(w[disklayout.BlockSize/2:]) // the never-written half reads zero
				}
			}
			for _, b := range append(run.Bufs, one) {
				for i := range b {
					b[i] = 0xFF
				}
			}
			for blk, w := range want {
				got, err := dev.ReadBlock(blk)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("block %d changed with the caller's buffer after the write returned", blk)
				}
			}
		})
	}
}

// perBlock is a Mem whose runs go through ReadVecPerBlock, the run path of a
// device with no native one.
type perBlock struct{ *Mem }

func (d perBlock) ReadVec(runs []Run) error { return ReadVecPerBlock(d.Mem, runs) }

// TestReadVecOverwritesWholeBuffer holds the read side of the Device
// ownership rule: a successful ReadVec overwrites every byte of every buffer
// it was passed, so a caller may read into a recycled block that still holds
// old bytes. Each stack is built twice alike, with the written run [8,24)
// and the never-written blocks [40,48); one build reads both into zeroed
// buffers (the reference), the other into buffers filled with 0xA5, and the
// two reads must agree byte for byte. Mem corrupting every read, an Overlay
// overriding blocks inside both runs and ReadVecPerBlock join every stack of
// wrapperCases.
func TestReadVecOverwritesWholeBuffer(t *testing.T) {
	cases := append([]wrapperCase{
		{name: "MemCorrupting", build: overMem(func(t *testing.T, m *Mem) Device {
			p := NewFaultPlan(7)
			p.CorruptReadProb = 1
			m.SetFaults(p)
			return m
		})},
		{name: "OverlayOverridden", build: overMem(func(t *testing.T, m *Mem) Device {
			return NewOverlay(m, map[uint32][]byte{10: block(0xEE), 44: block(0xEF)})
		})},
		{name: "PerBlock", build: overMem(func(t *testing.T, m *Mem) Device { return perBlock{m} })},
	}, wrapperCases...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got [2][]Run
			for k, fill := range []byte{0, 0xA5} {
				top, leaf, _ := c.build(t)
				if err := WriteVecPerBlock(leaf, []Run{testRun()}); err != nil {
					t.Fatal(err)
				}
				runs := []Run{{Blk: 8, Bufs: make([][]byte, 16)}, {Blk: 40, Bufs: make([][]byte, 8)}}
				for _, r := range runs {
					for i := range r.Bufs {
						r.Bufs[i] = block(fill)
					}
				}
				if err := top.ReadVec(runs); err != nil {
					t.Fatal(err)
				}
				got[k] = runs
			}
			for i, r := range got[1] {
				for j, b := range r.Bufs {
					if !bytes.Equal(b, got[0][i].Bufs[j]) {
						t.Fatalf("block %d: read into 0xA5-filled buffer differs from read into zeroed buffer", r.Blk+uint32(j))
					}
				}
			}
		})
	}
}
