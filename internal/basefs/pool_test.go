package basefs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/mkfs"
	"repro/internal/model"
)

// mountSmallCache formats a 16 MiB image and mounts it with a clean budget
// of cacheBlocks, so streams larger than that evict all the time.
func mountSmallCache(t *testing.T, cacheBlocks int) *FS {
	t.Helper()
	dev := blockdev.NewMem(4096)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Options{CacheBlocks: cacheBlocks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Kill)
	return fs
}

// TestStreamRoundAllocs is the data-path twin of TestSyncRoundAllocs: on a
// mount with a 128-block clean budget, a steady-state round rewrites one
// 256 KiB extent file in 64 KiB calls with an fsync and reads a 1 MiB one
// back sequentially, whose readahead evicts the rewritten blocks. The
// cache's pool hands evicted, written-back and refused blocks to the next
// zero-fill, snapshot copy and readahead, so apart from the bytes ReadAt
// returns a round allocates far less than one block per block it moves.
func TestStreamRoundAllocs(t *testing.T) {
	const chunk, wChunks, rChunks = 64 << 10, 4, 16
	fs := mountSmallCache(t, 128)
	payload := bytes.Repeat([]byte("stream round "), chunk/13+1)[:chunk]
	for name, chunks := range map[string]int{"/w": wChunks, "/r": rChunks} {
		fd, err := fs.Create(name, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < chunks; c++ {
			if _, err := fs.WriteAt(fd, int64(c)*chunk, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	w, err := fs.Open("/w")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/r")
	if err != nil {
		t.Fatal(err)
	}
	const warm, rounds = 8, 32
	var total, returned uint64
	for i := 0; i < warm+rounds; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload[0] = byte(i)
		for c := 0; c < wChunks; c++ {
			if _, err := fs.WriteAt(w, int64(c)*chunk, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Fsync(w); err != nil {
			t.Fatal(err)
		}
		var n uint64
		for c := 0; c < rChunks; c++ {
			out, err := fs.ReadAt(r, int64(c)*chunk, chunk)
			if err != nil {
				t.Fatal(err)
			}
			n += uint64(len(out))
		}
		runtime.ReadMemStats(&after)
		if i >= warm {
			total += after.TotalAlloc - before.TotalAlloc
			returned += n
		}
	}
	moved := uint64(rounds * (wChunks + rChunks) * chunk / disklayout.BlockSize)
	per := (total - returned) / moved
	if per >= disklayout.BlockSize/8 {
		t.Errorf("a stream round allocates %d bytes per block moved beyond what ReadAt returns, want under %d",
			per, disklayout.BlockSize/8)
	} else {
		t.Logf("a stream round allocates %d bytes per block moved beyond what ReadAt returns", per)
	}
}

// TestPoolNeverAliasesLiveBlock runs a seeded mix of create, write,
// overwrite, truncate, unlink, read and fsync over a 16-buffer cache, so
// eviction, drops and recycling run all the time. After every op, every
// block held anywhere (mapped cache buffers, delalloc bufs and flushing
// generations, fs.unstable, fs.validated, the pool) is a distinct backing
// array, the pool is within its bound, and every file reads as in the
// specification model.
func TestPoolNeverAliasesLiveBlock(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		fs := mountSmallCache(t, 16)
		m := model.New(fs.sb)
		rng := rand.New(rand.NewSource(seed))
		names := []string{"/a", "/b", "/c", "/d"}
		maxSpares, maxValidated := 0, 0
		for step := 0; step < 400; step++ {
			name := names[rng.Intn(len(names))]
			op := rng.Intn(7)
			where := fmt.Sprintf("seed %d step %d op %d on %s", seed, step, op, name)
			switch op {
			case 0: // create (or reopen), then write
				checkSame(t, where, withFile(fs, name, true, nil), withFile(m, name, true, nil))
			case 1, 2: // write: extend, or overwrite within the file
				off := int64(rng.Intn(48 << 10))
				data := make([]byte, 1+rng.Intn(12<<10))
				rng.Read(data)
				wr := func(f fsapi.FS, fd fsapi.FD) error { _, err := f.WriteAt(fd, off, data); return err }
				checkSame(t, where, withFile(fs, name, false, wr), withFile(m, name, false, wr))
			case 3:
				size := int64(rng.Intn(56 << 10))
				checkSame(t, where, fs.Truncate(name, size), m.Truncate(name, size))
			case 4:
				checkSame(t, where, fs.Unlink(name), m.Unlink(name))
			case 5: // read a range (the full-content check below reads everything)
				off, n := int64(rng.Intn(56<<10)), 1+rng.Intn(16<<10)
				var got, want []byte
				checkSame(t, where,
					withFile(fs, name, false, func(f fsapi.FS, fd fsapi.FD) (err error) { got, err = f.ReadAt(fd, off, n); return }),
					withFile(m, name, false, func(f fsapi.FS, fd fsapi.FD) (err error) { want, err = f.ReadAt(fd, off, n); return }))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: read [%d,+%d) differs from the model", where, off, n)
				}
			case 6:
				sync := func(f fsapi.FS, fd fsapi.FD) error { return f.Fsync(fd) }
				checkSame(t, where, withFile(fs, name, false, sync), withFile(m, name, false, sync))
			}
			if n := checkPoolOwnership(t, where, fs); n > maxSpares {
				maxSpares = n
			}
			maxValidated = max(maxValidated, len(fs.validated))
			for _, name := range names {
				var got, want []byte
				checkSame(t, where,
					withFile(fs, name, false, func(f fsapi.FS, fd fsapi.FD) (err error) { got, err = f.ReadAt(fd, 0, 64<<10); return }),
					withFile(m, name, false, func(f fsapi.FS, fd fsapi.FD) (err error) { want, err = f.ReadAt(fd, 0, 64<<10); return }))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %s differs from the model", where, name)
				}
			}
		}
		if maxSpares == 0 {
			t.Fatalf("seed %d: the pool never held a block", seed)
		}
		if maxValidated == 0 {
			t.Fatalf("seed %d: no checkpoint ever left a validated image", seed)
		}
	}
}

// withFile opens name (creating it first when create is set), runs fn on
// the descriptor and closes it.
func withFile(f fsapi.FS, name string, create bool, fn func(fsapi.FS, fsapi.FD) error) error {
	fd, err := f.Open(name)
	if create && err != nil {
		fd, err = f.Create(name, 0o644)
	}
	if err != nil {
		return err
	}
	if fn != nil {
		err = fn(f, fd)
	}
	if cerr := f.Close(fd); err == nil {
		err = cerr
	}
	return err
}

// checkSame fails unless the base and the model returned the same errno.
func checkSame(t *testing.T, where string, got, want error) {
	t.Helper()
	if fserr.Errno(got) != fserr.Errno(want) {
		t.Fatalf("%s: base %v, model %v", where, got, want)
	}
}

// checkPoolOwnership holds the pool's rule that a spare block is held by
// nothing else: every block the cache maps, every delalloc buffer and
// frozen generation, every committed copy in fs.unstable, every validated
// image in fs.validated and every spare is its own backing array, and the
// pool is within its bound. It returns the number of spares.
func checkPoolOwnership(t *testing.T, where string, fs *FS) int {
	t.Helper()
	owner := map[*byte]string{}
	hold := func(b []byte, who string) {
		if len(b) != disklayout.BlockSize {
			t.Fatalf("%s: %s is %d bytes", where, who, len(b))
		}
		if prev, ok := owner[&b[0]]; ok {
			t.Fatalf("%s: %s shares memory with %s", where, who, prev)
		}
		owner[&b[0]] = who
	}
	mapped, spares, bound := fs.bc.Holdings()
	for i, b := range mapped {
		hold(b, fmt.Sprintf("mapped buffer %d", i))
	}
	fs.delMu.Lock()
	for ino, st := range fs.delalloc {
		for idx, b := range st.bufs {
			hold(b, fmt.Sprintf("inode %d bufs[%d]", ino, idx))
		}
		for idx, b := range st.flushing {
			hold(b, fmt.Sprintf("inode %d flushing[%d]", ino, idx))
		}
	}
	fs.delMu.Unlock()
	for blk, b := range fs.unstable {
		hold(b, fmt.Sprintf("unstable[%d]", blk))
	}
	for blk, b := range fs.validated {
		hold(b, fmt.Sprintf("validated[%d]", blk))
	}
	for i, b := range spares {
		hold(b, fmt.Sprintf("spare[%d]", i))
	}
	if len(spares) > bound {
		t.Fatalf("%s: %d spare blocks, bound %d", where, len(spares), bound)
	}
	return len(spares)
}
