package experiments

import "testing"

// TestFsckScaleSmoke runs each E13 harness at token scale: the shapes the
// benchmark relies on (parity enforced, scoped reads a small fraction of
// full reads, a real fsck phase measured) must hold even at smoke sizes.
func TestFsckScaleSmoke(t *testing.T) {
	rows, err := FsckParallelScale([]int{2}, 300, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (baseline + 1 worker count)", len(rows))
	}
	if rows[0].Workers != 0 || rows[1].Workers != 2 {
		t.Errorf("row workers = %d,%d", rows[0].Workers, rows[1].Workers)
	}
	if rows[0].Problems != rows[1].Problems || rows[0].ChecksRun != rows[1].ChecksRun {
		t.Error("harness returned rows it should have rejected as diverged")
	}
	// The read-once cache means the parallel pass cannot read more blocks
	// than the sequential walk.
	if rows[1].DevReads > rows[0].DevReads {
		t.Errorf("parallel read %d blocks, sequential %d", rows[1].DevReads, rows[0].DevReads)
	}

	scoped, err := ScopedFsckScale([]uint32{4096}, 8, 300, 5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scoped) != 1 {
		t.Fatalf("got %d scoped rows, want 1", len(scoped))
	}
	if scoped[0].ScopedReads >= scoped[0].FullReads {
		t.Errorf("scoped check read %d blocks, full %d — no proportionality win",
			scoped[0].ScopedReads, scoped[0].FullReads)
	}
	if scoped[0].GapBlocks == 0 {
		t.Error("gap session touched no blocks")
	}
}
