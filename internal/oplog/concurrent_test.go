package oplog

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// TestLogConcurrentAppendSnapshot appends from many goroutines and checks
// that Snapshot sees a dense, strictly increasing sequence with no op lost
// or duplicated between concurrent appenders. Run with -race.
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
		l.StableAt(wm, uint64(round+1))
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

// TestLogSnapshotConcurrent hammers Snapshot from readers while writers
// append and a truncator advances the stable point until the writers are
// done. Every snapshot must be strictly increasing and hold no op below the
// watermark of a StableAt that finished before the snapshot began. Run with
// -race: the deep copies race appends and truncations for the log's lock.
// Each writer stops after perWriter appends, so a truncator starved of CPU
// on a loaded host cannot let the log, and the snapshot every read copies,
// grow without bound.
func TestLogSnapshotConcurrent(t *testing.T) {
	l := NewLog()
	const writers, perWriter, readers = 4, 20000, 2
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(&Op{Kind: KCreate, Path: fmt.Sprintf("/w%d/f%d", w, i)})
			}
		}(w)
	}
	written := make(chan struct{})
	go func() { writing.Wait(); close(written) }()
	// truncated is the watermark of the last StableAt that has returned.
	var truncated atomic.Uint64
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := truncated.Load()
				ops, _, _ := l.Snapshot()
				for i, op := range ops {
					if op.Seq < floor {
						t.Errorf("snapshot holds op %d, below the finished truncation at %d", op.Seq, floor)
						return
					}
					if i > 0 && op.Seq <= ops[i-1].Seq {
						t.Errorf("snapshot not strictly increasing at %d", op.Seq)
						return
					}
				}
			}
		}()
	}
	for round := uint64(0); ; round++ {
		wm := l.Watermark()
		l.StableAt(wm, round)
		truncated.Store(wm)
		select {
		case <-written:
		default:
			continue
		}
		break
	}
	close(stop)
	reading.Wait()
}

// TestLogStableAtPartial pins down partial truncation deterministically:
// only ops below the watermark go, the rest keep their seqs and order, and
// the stable point's table gains the descriptors the dropped ops opened.
func TestLogStableAtPartial(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(&Op{Kind: KCreate, Path: fmt.Sprintf("/f%d", i), RetFD: fsapi.FD(i), RetIno: uint32(100 + i)})
	}
	l.StableAt(4, 11)
	if l.Len() != 6 {
		t.Fatalf("Len = %d, want 6", l.Len())
	}
	ops, fds, clk := l.Snapshot()
	if len(ops) != 6 || ops[0].Seq != 4 || ops[5].Seq != 9 {
		t.Fatalf("surviving seqs wrong: %d ops, first %d", len(ops), ops[0].Seq)
	}
	if len(fds) != 4 || fds[0] != 100 || fds[3] != 103 || clk != 11 {
		t.Fatalf("stable state = (%v, %d)", fds, clk)
	}
	if l.PeakLen() != 10 {
		t.Errorf("PeakLen = %d, want 10", l.PeakLen())
	}
}

// TestLogStableAtFoldsDescriptors pins the fold: a successful create or open
// adds its descriptor, a successful close removes one, failed calls and
// every other kind leave the table alone, and ops at or above the watermark
// are not folded yet.
func TestLogStableAtFoldsDescriptors(t *testing.T) {
	l := NewLog()
	l.Stable(map[fsapi.FD]uint32{0: 5, 1: 6}, 1)
	for _, o := range []*Op{
		{Kind: KClose, FD: 0},
		{Kind: KCreate, Path: "/a", RetFD: 0, RetIno: 7},
		{Kind: KOpen, Path: "/b", RetFD: 2, RetIno: 8},
		{Kind: KOpen, Path: "/missing", RetFD: -1, Errno: fserr.Errno(fserr.ErrNotExist)},
		{Kind: KClose, FD: 9, Errno: fserr.Errno(fserr.ErrBadFD)},
		{Kind: KWrite, FD: 1, Data: []byte("x"), RetN: 1},
		{Kind: KUnlink, Path: "/b"},
		{Kind: KClose, FD: 1},
		{Kind: KOpen, Path: "/a", RetFD: 1, RetIno: 7}, // seq 8: stays in the log
	} {
		l.Append(o)
	}
	l.StableAt(8, 2)
	_, fds, _ := l.Snapshot()
	want := map[fsapi.FD]uint32{0: 7, 2: 8}
	if !maps.Equal(fds, want) {
		t.Fatalf("folded table = %v, want %v", fds, want)
	}
	l.StableAt(l.Watermark(), 3)
	want[1] = 7
	if _, fds, _ = l.Snapshot(); !maps.Equal(fds, want) {
		t.Fatalf("folded table = %v, want %v", fds, want)
	}
	l.Stable(nil, 4) // a base's table replaces the fold
	if _, fds, _ = l.Snapshot(); len(fds) != 0 {
		t.Fatalf("table after Stable(nil) = %v, want empty", fds)
	}
}
