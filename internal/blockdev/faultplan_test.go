package blockdev

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/disklayout"
	"repro/internal/fserr"
)

// TestFaultPlanSharedAcrossDevicesRace is the -race regression for the
// parallel torture campaign: one fault plan shared across many devices, all
// probability knobs armed, hammered from concurrent goroutines. Every draw
// from the plan's pseudo-random stream and every block-map lookup must go
// through the plan's mutex; before that guard existed this test tripped the
// race detector on rand.Rand's internal state.
func TestFaultPlanSharedAcrossDevicesRace(t *testing.T) {
	plan := NewFaultPlan(42)
	plan.CorruptReadProb = 0.2
	plan.ReadErrProb = 0.2
	plan.WriteErrProb = 0.2
	plan.TornWriteProb = 0.2
	plan.CorruptBlocks = map[uint32]bool{3: true}
	plan.ReadErrBlocks = map[uint32]bool{5: true}

	const devices = 8
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		dev := NewMem(16)
		dev.SetFaults(plan)
		wg.Add(1)
		go func(dev *Mem) {
			defer wg.Done()
			buf := make([]byte, disklayout.BlockSize)
			for i := 0; i < 200; i++ {
				blk := uint32(i % 16)
				_ = dev.WriteBlock(blk, buf)
				_, _ = dev.ReadBlock(blk)
			}
		}(dev)
	}
	wg.Wait()
}

// TestFaultPlanForkIndependentStreams proves the campaign's reproducibility
// property: a forked plan's fault stream depends only on (parent seed, salt),
// not on what any sibling device does concurrently or before it.
func TestFaultPlanForkIndependentStreams(t *testing.T) {
	faultString := func(p *FaultPlan, n int) string {
		dev := NewMem(8)
		dev.SetFaults(p)
		buf := make([]byte, disklayout.BlockSize)
		var out []byte
		for i := 0; i < n; i++ {
			if err := dev.WriteBlock(uint32(i%8), buf); err != nil {
				out = append(out, 'W')
			}
			if _, err := dev.ReadBlock(uint32(i % 8)); err != nil {
				out = append(out, 'R')
			} else {
				out = append(out, '.')
			}
		}
		return string(out)
	}

	mk := func() *FaultPlan {
		p := NewFaultPlan(7)
		p.ReadErrProb = 0.3
		p.WriteErrProb = 0.3
		return p
	}

	// Same parent, same salt → identical stream.
	a := faultString(mk().Fork(1), 100)
	b := faultString(mk().Fork(1), 100)
	if a != b {
		t.Fatalf("fork(1) streams differ:\n%s\n%s", a, b)
	}

	// Draining the parent (or a sibling fork) must not perturb the child.
	parent := mk()
	sibling := parent.Fork(2)
	_ = faultString(sibling, 500)
	for i := 0; i < 100; i++ {
		parent.roll(0.5)
	}
	c := faultString(parent.Fork(1), 100)
	if a != c {
		t.Fatalf("fork(1) stream perturbed by parent/sibling activity:\n%s\n%s", a, c)
	}

	// Different salts → different streams (with these probabilities a 100-op
	// collision is astronomically unlikely).
	d := faultString(mk().Fork(2), 100)
	if a == d {
		t.Fatalf("fork(1) and fork(2) produced identical streams")
	}
}

// TestFaultPlanForkCopiesMaps guards the deep copy: mutating the parent's
// block maps after forking must not affect (or race) the child.
func TestFaultPlanForkCopiesMaps(t *testing.T) {
	p := NewFaultPlan(1)
	p.ReadErrBlocks = map[uint32]bool{2: true}
	child := p.Fork(9)
	p.ReadErrBlocks[3] = true // parent-only mutation

	dev := NewMem(8)
	dev.SetFaults(child)
	if _, err := dev.ReadBlock(2); err == nil {
		t.Fatal("forked plan lost ReadErrBlocks entry")
	}
	if _, err := dev.ReadBlock(3); err != nil {
		t.Fatalf("forked plan picked up post-fork parent mutation: %v", err)
	}

	// Zero-value parent: Fork still yields a usable independent plan.
	var zp FaultPlan
	zc := zp.Fork(4)
	if zc == nil {
		t.Fatal("fork of zero-value plan returned nil")
	}
	dev2 := NewMem(8)
	dev2.SetFaults(zc)
	if _, err := dev2.ReadBlock(1); err != nil {
		t.Fatalf("zero-value fork injected unexpected fault: %v", err)
	}
	if err := dev2.WriteBlock(1, bytes.Repeat([]byte{1}, disklayout.BlockSize)); err != nil {
		t.Fatalf("zero-value fork injected unexpected write fault: %v", err)
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
