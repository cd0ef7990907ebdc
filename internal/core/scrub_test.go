package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/basefs"
	"repro/internal/faultinject"
)

// TestScopedFsckAfterVerifiedRecovery: the first recovery has no verified
// baseline and checks the whole image; it establishes the baseline, so the
// second recovery's check is scoped to the blocks touched since.
func TestScopedFsckAfterVerifiedRecovery(t *testing.T) {
	reg := faultinject.NewRegistry(51)
	reg.Arm(&faultinject.Specimen{
		ID: "boom1", Class: faultinject.Crash, Deterministic: true,
		Op: "mkdir", Point: "entry", PathSubstr: "boom1", MaxFires: 1,
	})
	reg.Arm(&faultinject.Specimen{
		ID: "boom2", Class: faultinject.Crash, Deterministic: true,
		Op: "mkdir", Point: "entry", PathSubstr: "boom2", MaxFires: 1,
	})
	fs, _, _ := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})
	for i := 0; i < 5; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/pre-%d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mkdir("/boom1-dir", 0o755); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.Recoveries != 1 || st.FsckFull != 1 || st.FsckScoped != 0 {
		t.Fatalf("after cold fault: recoveries=%d full=%d scoped=%d, want 1/1/0",
			st.Recoveries, st.FsckFull, st.FsckScoped)
	}
	// Writes between the faults: the second fault's blast radius. The sync
	// pushes them to the device, so the second recovery's scoped check has
	// blocks the base wrote since the first to cover.
	for i := 0; i < 5; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/mid-%d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/boom2-dir", 0o755); err != nil {
		t.Fatal(err)
	}
	st = fs.Stats()
	if st.Recoveries != 2 || st.FsckFull != 1 || st.FsckScoped != 1 {
		t.Fatalf("after second fault: recoveries=%d full=%d scoped=%d, want 2/1/1",
			st.Recoveries, st.FsckFull, st.FsckScoped)
	}
	if st.Degradations != 0 || st.AppFailures != 0 {
		t.Errorf("degradations=%d appFailures=%d, want 0/0", st.Degradations, st.AppFailures)
	}
	// Both detonating directories exist: the ops were reconstructed.
	for _, p := range []string{"/boom1-dir", "/boom2-dir", "/pre-0", "/mid-4"} {
		if _, err := fs.Stat(p); err != nil {
			t.Errorf("Stat(%s): %v", p, err)
		}
	}
}

// TestScrubTripsRecoveryOncePerEpisode: out-of-band durable corruption is
// detected by a scrub pass, which proactively trips the recovery fence —
// but only once per corruption episode. Damage no recovery can repair must
// not cause a recovery storm, and nothing is charged to the application.
func TestScrubTripsRecoveryOncePerEpisode(t *testing.T) {
	fs, dev, sb := newSupervised(t, Config{})
	for i := 0; i < 5; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/d-%d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Out-of-band damage no application operation will ever touch: scribble
	// on the LAST inode-table block — a region the workload never wrote, so
	// the journal's committed overlay cannot mask it (corrupting a recently
	// synced block would be healed by replay, which is correct behavior and
	// a different test). The garbage record with its bitmap bit clear is a
	// ghost: unambiguous durable corruption nothing can repair from.
	if err := dev.CorruptBlock(sb.InodeTableStart+sb.InodeTableLen-1, 0, 0xFF); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fs.Scrubber().RunOnce()
	}
	st := fs.Stats()
	if st.ScrubCorrupt < 3 {
		t.Fatalf("scrubber kept missing durable corruption: %d corrupt passes", st.ScrubCorrupt)
	}
	if st.Recoveries != 1 {
		t.Errorf("recoveries = %d across %d corrupt passes, want exactly 1 (episode gating)",
			st.Recoveries, st.ScrubCorrupt)
	}
	if st.AppFailures != 0 {
		t.Errorf("appFailures = %d: scrub-tripped recovery charged the application", st.AppFailures)
	}
	if st.Degradations == 0 {
		t.Error("unrepairable corruption did not degrade")
	}
}

// TestScrubBaselineEnablesScopedRecovery: a clean scrub pass verifies the
// image, so the very first fault recovery can already run a scoped check —
// no cold full-image check required.
func TestScrubBaselineEnablesScopedRecovery(t *testing.T) {
	reg := faultinject.NewRegistry(53)
	reg.Arm(&faultinject.Specimen{
		ID: "boom", Class: faultinject.Crash, Deterministic: true,
		Op: "mkdir", Point: "entry", PathSubstr: "boom", MaxFires: 1,
	})
	fs, _, _ := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})
	for i := 0; i < 5; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/d-%d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce, then run a clean pass over the post-write image. The pass
	// carries the current generation, so the baseline verdict sticks.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep := fs.Scrubber().RunOnce(); rep == nil || !rep.Clean() {
		t.Fatalf("scrub pass over the synced image not clean: %+v", rep)
	}
	if err := fs.Mkdir("/boom-dir", 0o755); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.Recoveries != 1 || st.FsckScoped != 1 || st.FsckFull != 0 {
		t.Errorf("recoveries=%d scoped=%d full=%d, want 1/1/0 (scrub baseline unused)",
			st.Recoveries, st.FsckScoped, st.FsckFull)
	}
	if _, err := fs.Stat("/boom-dir"); err != nil {
		t.Errorf("Stat(/boom-dir): %v", err)
	}
}

// TestScrubConcurrentWithFaultsRace hammers the scrubber against the fault-
// recovery loop: a goroutine runs passes back to back, freezing views and
// refreshing the baseline, while application goroutines detonate crashes
// and recover. Run under -race in CI; the invariant is the usual one — no
// failure ever reaches the application.
func TestScrubConcurrentWithFaultsRace(t *testing.T) {
	reg := faultinject.NewRegistry(54)
	reg.Arm(&faultinject.Specimen{
		ID: "crash-burst", Class: faultinject.Crash, Deterministic: true,
		Op: "mkdir", Point: "entry", PathSubstr: "trigger", MaxFires: 6,
	})
	fs, _, _ := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})
	stop := make(chan struct{})
	scrubbed := make(chan struct{})
	go func() {
		defer close(scrubbed)
		for {
			fs.Scrubber().RunOnce()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	const workers, perWorker = 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := fmt.Sprintf("/d-%d-%d", w, i)
				if i%7 == 3 {
					path = fmt.Sprintf("/trigger-%d-%d", w, i)
				}
				if err := fs.Mkdir(path, 0o755); err != nil {
					errs <- fmt.Errorf("mkdir %s: %w", path, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scrubbed
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := fs.Stats()
	if st.AppFailures != 0 {
		t.Errorf("appFailures = %d, want 0", st.AppFailures)
	}
	if st.Recoveries == 0 {
		t.Error("burst never triggered a recovery")
	}
	if st.Degradations != 0 {
		t.Errorf("degradations = %d, want 0", st.Degradations)
	}
	if fs.Scrubber().Passes() == 0 {
		t.Error("scrubber made no passes during the hammer")
	}
}
