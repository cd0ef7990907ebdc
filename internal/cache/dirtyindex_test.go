package cache

import (
	"math/rand"
	"testing"

	"repro/internal/disklayout"
)

// TestDirtyIndexesMatchScan drives a seeded random mix of every call that
// dirties, cleans, installs, drops, purges or evicts, and after each step
// holds the maintained dirty sets to a brute-force scan of the shard maps and
// the inode map: before a snapshot every dirty mapped buffer and dirty cached
// inode must be in its set (the sets drop clean entries lazily), and
// SnapshotDirty, DirtyInodes and the swept sets must equal the scan.
func TestDirtyIndexesMatchScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		c, _, _ := newBC(t, 64, 32)
		ic := NewInodeCache(16)
		const blocks, inodes = 48, 40

		var pinned, seen []*Buf // pinned: one entry per pin held
		var snaps []DirtySnap   // the last snapshot, for versioned retires
		var cis []*CachedInode  // every inode object ever put
		pickSeen := func() *Buf { return seen[rng.Intn(len(seen))] }
		pin := func(b *Buf) {
			if b != nil {
				pinned = append(pinned, b)
				seen = append(seen, b)
			}
		}
		for step := 0; step < 4000; step++ {
			blk := uint32(rng.Intn(blocks))
			switch op := rng.Intn(20); {
			case op == 0:
				b, err := c.Get(blk)
				if err != nil {
					t.Fatal(err)
				}
				pin(b)
			case op == 1:
				pin(c.GetZero(blk))
			case op == 2:
				pin(c.Peek(blk))
			case op <= 4 && len(pinned) > 0:
				i := rng.Intn(len(pinned))
				c.Release(pinned[i])
				pinned = append(pinned[:i], pinned[i+1:]...)
			case op == 5 && len(pinned) > 0:
				c.MarkDirty(pinned[rng.Intn(len(pinned))])
			case op == 6 && len(pinned) > 0:
				c.MarkDirtyMeta(pinned[rng.Intn(len(pinned))])
			case op == 7 && len(seen) > 0:
				c.MarkClean(pickSeen())
			case op == 8 && len(snaps) > 0:
				s := snaps[rng.Intn(len(snaps))]
				c.MarkCleanVer(s.Buf, s.Ver)
			case op == 9 && len(snaps) > 0:
				s := snaps[rng.Intn(len(snaps))]
				c.MarkJournaled(s.Buf, s.Ver)
			case op == 10:
				c.MarkStable(blk)
			case op == 11:
				c.Install(blk, make([]byte, disklayout.BlockSize), rng.Intn(2) == 0)
			case op == 12:
				c.InstallClean(blk, make([]byte, disklayout.BlockSize))
			case op == 13:
				c.Drop(blk)
			case op == 14:
				c.SetCleanBudget(8 + rng.Intn(32))
			case op == 15:
				ci := &CachedInode{Ino: uint32(1 + rng.Intn(inodes)), Dirty: rng.Intn(3) == 0, Opens: rng.Intn(4) / 3}
				if len(cis) > 0 && rng.Intn(4) == 0 {
					ci = cis[rng.Intn(len(cis))] // an inode object cached before
				}
				cis = append(cis, ic.Put(ci))
			case op == 16 && len(cis) > 0:
				ic.MarkDirty(cis[rng.Intn(len(cis))])
			case op == 17 && len(cis) > 0:
				ic.MarkClean(cis[rng.Intn(len(cis))])
			case op == 18:
				ino := uint32(1 + rng.Intn(inodes))
				old := ic.inodes[ino]
				ic.Drop(ino)
				if old != nil && rng.Intn(2) == 0 {
					ic.Put(old) // the same object cached again before a sweep
				}
			case op == 19 && rng.Intn(20) == 0:
				ic.Purge()
			}
			checkIndexed(t, seed, step, c, ic)
			if rng.Intn(3) == 0 { // sync rounds sweep the sets now and then
				snaps = c.SnapshotDirty()
				checkBufIndex(t, seed, step, c, snaps)
				checkInodeSet(t, seed, step, ic)
			}
		}
		for _, b := range pinned {
			c.Release(b)
		}
	}
}

// checkIndexed holds the invariant the lazy sets keep between snapshots:
// each entry appears once with its flag set, a mapped buffer or cached inode
// is flagged exactly when listed, and every dirty one is listed.
func checkIndexed(t *testing.T, seed int64, step int, c *BufferCache, ic *InodeCache) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		listed := map[*Buf]bool{}
		for _, b := range s.dirty {
			if listed[b] || !b.indexed {
				t.Fatalf("seed %d step %d: shard %d lists block %d twice or unflagged", seed, step, i, b.Blk)
			}
			listed[b] = true
		}
		for blk, b := range s.bufs {
			if b.indexed != listed[b] || b.dirty && !listed[b] {
				t.Fatalf("seed %d step %d: dirty=%v block %d flagged %v, listed %v in shard %d",
					seed, step, b.dirty, blk, b.indexed, listed[b], i)
			}
		}
	}
	listed := map[*CachedInode]bool{}
	for _, ci := range ic.dirty {
		if listed[ci] || !ci.indexed {
			t.Fatalf("seed %d step %d: inode %d listed twice or unflagged", seed, step, ci.Ino)
		}
		listed[ci] = true
	}
	for ino, ci := range ic.inodes {
		if ci.indexed != listed[ci] || ci.Dirty && !listed[ci] {
			t.Fatalf("seed %d step %d: dirty=%v inode %d flagged %v, listed %v", seed, step, ci.Dirty, ino, ci.indexed, listed[ci])
		}
	}
}

// checkBufIndex holds SnapshotDirty and the swept lists to the scan.
func checkBufIndex(t *testing.T, seed int64, step int, c *BufferCache, snaps []DirtySnap) {
	t.Helper()
	want := map[uint32]*Buf{}
	for i := range c.shards {
		s := &c.shards[i]
		n := 0
		for _, b := range s.bufs {
			if b.dirty {
				want[b.Blk] = b
				n++
			}
		}
		if len(s.dirty) != n {
			t.Fatalf("seed %d step %d: shard %d lists %d buffers after the sweep, scan finds %d dirty", seed, step, i, len(s.dirty), n)
		}
	}
	if len(snaps) != len(want) {
		t.Fatalf("seed %d step %d: SnapshotDirty has %d buffers, scan finds %d", seed, step, len(snaps), len(want))
	}
	for _, s := range snaps {
		if want[s.Blk] != s.Buf || s.Meta != s.Buf.meta || s.Ver != s.Buf.ver {
			t.Fatalf("seed %d step %d: snapshot of block %d does not match the mapped dirty buffer", seed, step, s.Blk)
		}
	}
}

func checkInodeSet(t *testing.T, seed int64, step int, ic *InodeCache) {
	t.Helper()
	got := map[*CachedInode]bool{}
	for _, ci := range ic.DirtyInodes() {
		got[ci] = true
	}
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if len(ic.dirty) != len(got) {
		t.Fatalf("seed %d step %d: swept dirty set holds %d inodes, DirtyInodes returned %d", seed, step, len(ic.dirty), len(got))
	}
	n := 0
	for _, ci := range ic.inodes {
		if ci.Dirty {
			n++
			if !got[ci] {
				t.Fatalf("seed %d step %d: dirty inode %d missing from DirtyInodes", seed, step, ci.Ino)
			}
		}
	}
	if len(got) != n {
		t.Fatalf("seed %d step %d: DirtyInodes has %d inodes, scan finds %d", seed, step, len(got), n)
	}
}
