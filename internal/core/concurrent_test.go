package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/basefs"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/fserr"
)

// TestConcurrentApplicationsUnderRecovery drives the supervisor from many
// goroutines while a probabilistic crash specimen fires: operations
// serialize at the supervisor, recoveries interleave with waiting callers,
// and at the end the filesystem must be structurally clean with every
// surviving file intact. Run with -race.
func TestConcurrentApplicationsUnderRecovery(t *testing.T) {
	reg := faultinject.NewRegistry(21)
	reg.Arm(&faultinject.Specimen{
		ID: "conc-crash", Class: faultinject.Crash,
		Deterministic: false, Prob: 0.01, Point: "entry",
	})
	fs, dev, _ := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dir := fmt.Sprintf("/w%d", w)
			if err := fs.Mkdir(dir, 0o755); err != nil {
				t.Errorf("mkdir %s: %v", dir, err)
				return
			}
			for i := 0; i < 40; i++ {
				p := fmt.Sprintf("%s/f%d", dir, i)
				fd, err := fs.Create(p, 0o644)
				if err != nil {
					t.Errorf("create %s: %v", p, err)
					return
				}
				payload := bytes.Repeat([]byte{byte(w*40 + i)}, 256)
				if _, err := fs.WriteAt(fd, 0, payload); err != nil {
					t.Errorf("write %s: %v", p, err)
					return
				}
				got, err := fs.ReadAt(fd, 0, 256)
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("readback %s: %v", p, err)
					return
				}
				if err := fs.Close(fd); err != nil {
					t.Errorf("close %s: %v", p, err)
					return
				}
				if i%10 == 9 {
					if err := fs.Sync(); err != nil {
						t.Errorf("sync: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := fs.Stats()
	if st.Recoveries == 0 {
		t.Log("note: specimen never fired this run (probabilistic)")
	}
	if st.AppFailures != 0 {
		t.Errorf("app failures under concurrency: %+v", st)
	}
	// Every file is present with the right content.
	for w := 0; w < workers; w++ {
		for i := 0; i < 40; i++ {
			p := fmt.Sprintf("/w%d/f%d", w, i)
			fd, err := fs.Open(p)
			if err != nil {
				t.Fatalf("reopen %s: %v", p, err)
			}
			got, err := fs.ReadAt(fd, 0, 256)
			if err != nil || len(got) != 256 || got[0] != byte(w*40+i) {
				t.Fatalf("content %s: %v", p, err)
			}
			fs.Close(fd)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if rep := fsck.Check(dev); !rep.Clean() {
		for _, p := range rep.Problems {
			t.Errorf("%s", p)
		}
	}
}

// TestRecoveryUnderLoadRepeatedFaults hammers the supervisor with a mixed
// workload from many goroutines while a deterministic specimen fires
// repeatedly, guaranteeing several recoveries interleave with in-flight
// operations. Afterwards: no acknowledged operation may be lost or
// double-applied (file set and contents must match the oracle each worker
// tracked), descriptors opened before a recovery must still work after it,
// and the image must check clean. Run with -race.
func TestRecoveryUnderLoadRepeatedFaults(t *testing.T) {
	reg := faultinject.NewRegistry(7)
	// Fires on every 25th create from the 10th onward, five times total:
	// recoveries land mid-workload, repeatedly.
	reg.Arm(&faultinject.Specimen{
		ID: "load-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "create", Point: "entry",
		AfterN: 10, MaxFires: 5,
	})
	fs, dev, _ := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})

	const (
		workers = 8
		files   = 30
	)
	// Per-worker oracle: file name -> expected first byte, for files that
	// must exist at the end (nil slot = unlinked).
	type oracle struct {
		exists [files]bool
		keepFD [files]bool
	}
	oracles := make([]oracle, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dir := fmt.Sprintf("/lw%d", w)
			if err := fs.Mkdir(dir, 0o755); err != nil {
				t.Errorf("mkdir %s: %v", dir, err)
				return
			}
			// An fd held open across the whole run — including every
			// recovery — must stay usable (post-recovery descriptor table).
			heldPath := dir + "/held"
			held, err := fs.Create(heldPath, 0o644)
			if err != nil {
				t.Errorf("create %s: %v", heldPath, err)
				return
			}
			for i := 0; i < files; i++ {
				p := fmt.Sprintf("%s/f%d", dir, i)
				fd, err := fs.Create(p, 0o644)
				if err != nil {
					t.Errorf("create %s: %v", p, err)
					return
				}
				payload := bytes.Repeat([]byte{byte(w*files + i)}, 128)
				if _, err := fs.WriteAt(fd, 0, payload); err != nil {
					t.Errorf("write %s: %v", p, err)
					return
				}
				if err := fs.Close(fd); err != nil {
					t.Errorf("close %s: %v", p, err)
					return
				}
				oracles[w].exists[i] = true
				// Exercise the held fd so a stale descriptor table surfaces.
				if _, err := fs.WriteAt(held, int64(i), []byte{byte(i)}); err != nil {
					t.Errorf("held write %s: %v", heldPath, err)
					return
				}
				switch i % 5 {
				case 1: // rename in place
					np := p + ".r"
					if err := fs.Rename(p, np); err != nil {
						t.Errorf("rename %s: %v", p, err)
						return
					}
					if err := fs.Rename(np, p); err != nil {
						t.Errorf("rename back %s: %v", np, err)
						return
					}
				case 2: // unlink: must be gone at the end
					if err := fs.Unlink(p); err != nil {
						t.Errorf("unlink %s: %v", p, err)
						return
					}
					oracles[w].exists[i] = false
				case 3:
					if _, err := fs.Readdir(dir); err != nil {
						t.Errorf("readdir %s: %v", dir, err)
						return
					}
				case 4:
					if err := fs.Fsync(held); err != nil {
						t.Errorf("fsync: %v", err)
						return
					}
				}
			}
			if err := fs.Close(held); err != nil {
				t.Errorf("close held: %v", err)
			}
		}(w)
	}
	wg.Wait()

	st := fs.Stats()
	if st.Recoveries < 1 {
		t.Errorf("expected repeated recoveries, got %d (stats %+v)", st.Recoveries, st)
	}
	if st.AppFailures != 0 {
		t.Errorf("app failures under load: %+v", st)
	}

	// No acknowledged op lost, no unlink resurrect, contents exact.
	for w := 0; w < workers; w++ {
		dir := fmt.Sprintf("/lw%d", w)
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("%s/f%d", dir, i)
			fd, err := fs.Open(p)
			if oracles[w].exists[i] {
				if err != nil {
					t.Errorf("lost file %s: %v", p, err)
					continue
				}
				got, err := fs.ReadAt(fd, 0, 128)
				if err != nil || len(got) != 128 || got[0] != byte(w*files+i) {
					t.Errorf("content %s: len=%d err=%v", p, len(got), err)
				}
				fs.Close(fd)
			} else if err == nil {
				t.Errorf("unlinked file %s resurrected", p)
				fs.Close(fd)
			}
		}
		// The held file accumulated one byte per iteration.
		fd, err := fs.Open(dir + "/held")
		if err != nil {
			t.Errorf("held file lost in %s: %v", dir, err)
			continue
		}
		got, err := fs.ReadAt(fd, 0, files)
		if err != nil || len(got) != files {
			t.Errorf("held content %s: len=%d err=%v", dir, len(got), err)
		}
		for i := 0; i < len(got); i++ {
			if got[i] != byte(i) {
				t.Errorf("held byte %d in %s = %#x, want %#x", i, dir, got[i], byte(i))
				break
			}
		}
		fs.Close(fd)
	}

	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if rep := fsck.Check(dev); !rep.Clean() {
		for _, p := range rep.Problems {
			t.Errorf("%s", p)
		}
	}
}

// TestWriteBufferAliasingDuringRecovery is the regression test for the
// Op.Data aliasing bug: once WriteAt returns, the buffer belongs to the
// caller again and may be reused freely — but the recorded operation lives
// on in the log until the next stable point, and a later recovery replays
// it. If the facade did not copy the payload, the replay would read the
// caller's reused buffer instead of the bytes that were written.
//
// Sequence: a write survives a freeze recovery (exercising the
// abandoned-goroutine path), the caller then scribbles over its buffer, and
// a second fault forces a full log replay. The readback must show the
// original payload.
func TestWriteBufferAliasingDuringRecovery(t *testing.T) {
	reg := faultinject.NewRegistry(3)
	reg.Arm(&faultinject.Specimen{
		ID: "alias-freeze", Class: faultinject.Freeze,
		Deterministic: true, Op: "writeat", Point: "entry",
		AfterN: 1, MaxFires: 1, FreezeFor: 500 * time.Millisecond,
	})
	reg.Arm(&faultinject.Specimen{
		ID: "alias-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "mkdir", Point: "entry",
		MaxFires: 1,
	})
	fs, _, _ := newSupervised(t, Config{
		Base:     basefs.Options{Injector: reg},
		Watchdog: 100 * time.Millisecond,
	})

	fd, err := fs.Create("/alias", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// First write passes (AfterN skips it); second freezes for 500ms while
	// the 100ms watchdog abandons it and the shadow replays it.
	if _, err := fs.WriteAt(fd, 0, []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 64)
	buf := make([]byte, len(payload))
	copy(buf, payload)
	if _, err := fs.WriteAt(fd, 0, buf); err != nil {
		t.Fatalf("WriteAt across recovery: %v", err)
	}
	st := fs.Stats()
	if st.Freezes == 0 || st.Recoveries == 0 {
		t.Fatalf("freeze recovery did not happen: %+v", st)
	}
	// The call has returned: the caller is entitled to reuse its buffer.
	for i := range buf {
		buf[i] = 0xEE
	}
	// Nothing has synced, so the write is still in the log. Force a second
	// recovery, whose shadow replay reconstructs the file from the recorded
	// payload — which must be a private copy, not the scribbled buffer.
	if err := fs.Mkdir("/poke", 0o755); err != nil {
		t.Fatalf("Mkdir across recovery: %v", err)
	}
	if st = fs.Stats(); st.Recoveries < 2 {
		t.Fatalf("second recovery did not happen: %+v", st)
	}
	got, err := fs.ReadAt(fd, 0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("replayed write used the mutated buffer: got %#x... want %#x...", got[0], payload[0])
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// TestLogFoldedFDsMatchBase: a sync round's stable point takes its
// descriptor table from the log's fold of the ops it drops, never from the
// base. Two goroutines create, open, write, fsync and close on one FS, each
// holding a few descriptors across rounds, while a planted crash is
// recovered midway. After every quiescent Sync the log is empty and its
// table equals the base's. Run with -race: the goroutines' fsyncs fold
// while the other goroutine opens and closes.
func TestLogFoldedFDsMatchBase(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(trigger(faultinject.Crash, "create", true))
	fs, _, _ := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})
	const workers, rounds, steps = 2, 24, 6
	for w := 0; w < workers; w++ {
		if err := fs.Mkdir(fmt.Sprintf("/g%d", w), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	held := make([][]fsapi.FD, workers)
	step := func(w, round, i int) error {
		name := fmt.Sprintf("/g%d/f%d", w, (round*steps+i)%10)
		if w == 0 && round == rounds/2 && i == 0 {
			name = "/g0/trigger"
		}
		fd, err := fs.Create(name, 0o644)
		if errors.Is(err, fserr.ErrExist) {
			fd, err = fs.Open(name)
		}
		if err != nil {
			return err
		}
		if _, err := fs.WriteAt(fd, int64(i), []byte{byte(round)}); err != nil {
			return err
		}
		if i%2 == 0 {
			if err := fs.Fsync(fd); err != nil {
				return err
			}
		}
		if i%3 == 0 { // a second descriptor opened and closed in one window
			fd2, err := fs.Open(name)
			if err != nil {
				return err
			}
			if err := fs.Close(fd2); err != nil {
				return err
			}
		}
		held[w] = append(held[w], fd)
		if len(held[w]) > 3 { // the oldest was opened rounds ago
			if err := fs.Close(held[w][0]); err != nil {
				return err
			}
			held[w] = held[w][1:]
		}
		return nil
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < steps && errs[w] == nil; i++ {
					errs[w] = step(w, round, i)
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d worker %d: %v", round, w, err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatalf("round %d: sync: %v", round, err)
		}
		if n := fs.LogLen(); n != 0 {
			t.Fatalf("round %d: %d ops left after a quiescent sync", round, n)
		}
		_, got, _ := fs.log.Snapshot()
		if want := fs.base.Load().OpenFDs(); !maps.Equal(got, want) {
			t.Fatalf("round %d: log's table %v, base's %v", round, got, want)
		}
	}
	if st := fs.Stats(); st.Recoveries != 1 || st.Degradations != 0 || st.AppFailures != 0 {
		t.Fatalf("recoveries %d, degradations %d, app failures %d; want 1, 0, 0",
			st.Recoveries, st.Degradations, st.AppFailures)
	}
}
