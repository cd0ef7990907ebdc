package oplog

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fsapi"
)

// TestLogConcurrentAppendSnapshot appends from many goroutines and checks
// that Snapshot sees a dense, strictly increasing sequence with no op lost
// or duplicated across the shards. Run with -race.
func TestLogConcurrentAppendSnapshot(t *testing.T) {
	l := NewLog()
	const (
		writers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				l.Append(&Op{Kind: KCreate, Path: fmt.Sprintf("/w%d/f%d", w, i)})
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != writers*perW {
		t.Fatalf("Len = %d, want %d", l.Len(), writers*perW)
	}
	ops, _, _ := l.Snapshot()
	if len(ops) != writers*perW {
		t.Fatalf("snapshot has %d ops, want %d", len(ops), writers*perW)
	}
	seen := make(map[string]bool, len(ops))
	for i, op := range ops {
		if op.Seq != uint64(i) {
			t.Fatalf("ops[%d].Seq = %d: sequence not dense/sorted", i, op.Seq)
		}
		if seen[op.Path] {
			t.Fatalf("op %q recorded twice", op.Path)
		}
		seen[op.Path] = true
	}
}

// TestLogWatermarkExcludesUnfinishedAppends checks the watermark contract
// under concurrency: every op with Seq < Watermark() is fully inserted, so
// StableAt at that watermark never strands a claimed-but-invisible op, and
// ops at or above it survive the truncation. Each writer stops after
// perWriter appends, so a truncator starved of CPU on a loaded host cannot
// let the log, and the snapshot every round copies, grow without bound.
func TestLogWatermarkExcludesUnfinishedAppends(t *testing.T) {
	l := NewLog()
	const writers, perWriter = 4, 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l.Append(&Op{Kind: KMkdir, Path: "/d"})
			}
		}()
	}
	var last uint64
	for round := 0; round < 50; round++ {
		wm := l.Watermark()
		if wm < last {
			t.Fatalf("watermark went backwards: %d -> %d", last, wm)
		}
		last = wm
		l.StableAt(wm, map[fsapi.FD]uint32{1: 2}, uint64(round+1))
		ops, _, _ := l.Snapshot()
		for _, op := range ops {
			if op.Seq < wm {
				t.Fatalf("op seq %d survived StableAt(%d)", op.Seq, wm)
			}
		}
	}
	close(stop)
	wg.Wait()
	// Final full truncation drains everything.
	l.Stable(nil, 99)
	if l.Len() != 0 {
		t.Fatalf("Len = %d after Stable", l.Len())
	}
}

// TestLogSnapshotSinceConcurrent hammers SnapshotSince from readers while
// writers append and a truncator advances the stable point, checking every
// returned suffix is dense from its requested floor and never contains a
// truncated op. Run with -race: the suffix deep-copies happen outside the
// shard locks, and this test is the proof that is safe. Each writer stops
// after perWriter appends, so a truncator starved of CPU on a loaded host
// cannot let the log grow without bound.
func TestLogSnapshotSinceConcurrent(t *testing.T) {
	l := NewLog()
	const writers, perWriter = 4, 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l.Append(&Op{Kind: KCreate, Path: fmt.Sprintf("/w%d/f%d", w, i)})
			}
		}(w)
	}
	for round := 0; round < 40; round++ {
		wm := l.Watermark()
		l.StableAt(wm, nil, uint64(round))
		floor := wm / 2 // sometimes below the stable point, sometimes above
		ops, _, _ := l.SnapshotSince(floor)
		stable := l.StableSeq()
		prev := uint64(0)
		for i, op := range ops {
			if op.Seq < floor {
				t.Fatalf("round %d: op seq %d below requested floor %d", round, op.Seq, floor)
			}
			if i > 0 && op.Seq <= prev {
				t.Fatalf("round %d: suffix not strictly increasing at %d", round, op.Seq)
			}
			prev = op.Seq
		}
		if stable < wm {
			t.Fatalf("round %d: StableSeq %d went behind truncation watermark %d", round, stable, wm)
		}
	}
	close(stop)
	wg.Wait()
	// Deterministic equivalence: a quiet log's SnapshotSince(s) must be
	// exactly Snapshot() filtered to Seq >= s. The quiet appends leave a
	// suffix to compare even when the rounds drained every writer's op.
	for i := 0; i < 8; i++ {
		l.Append(&Op{Kind: KCreate, Path: fmt.Sprintf("/quiet/f%d", i)})
	}
	all, _, _ := l.Snapshot()
	mid := all[len(all)/2].Seq
	suffix, _, _ := l.SnapshotSince(mid)
	want := 0
	for _, op := range all {
		if op.Seq >= mid {
			want++
		}
	}
	if len(suffix) != want || suffix[0].Seq != mid {
		t.Fatalf("SnapshotSince(%d) = %d ops starting %d, want %d starting %d",
			mid, len(suffix), suffix[0].Seq, want, mid)
	}
}

// TestLogStableAtPartial pins down partial truncation deterministically:
// only ops below the watermark go, the rest keep their seqs and order.
func TestLogStableAtPartial(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(&Op{Kind: KCreate, Path: fmt.Sprintf("/f%d", i)})
	}
	l.StableAt(4, map[fsapi.FD]uint32{7: 3}, 11)
	if l.Len() != 6 {
		t.Fatalf("Len = %d, want 6", l.Len())
	}
	ops, fds, clk := l.Snapshot()
	if len(ops) != 6 || ops[0].Seq != 4 || ops[5].Seq != 9 {
		t.Fatalf("surviving seqs wrong: %d ops, first %d", len(ops), ops[0].Seq)
	}
	if fds[7] != 3 || clk != 11 {
		t.Fatalf("stable state = (%v, %d)", fds, clk)
	}
	if l.PeakLen() != 10 {
		t.Errorf("PeakLen = %d, want 10", l.PeakLen())
	}
}
