package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/basefs"
	"repro/internal/faultinject"
	"repro/internal/oplog"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestWarmResumeReplaysOnlySuffix is the incremental-recovery acceptance
// check: after a first fault with a large op gap, a second fault shortly
// after must replay only the ops recorded since — the retained warm engine
// covers the rest — and the reuse must be visible in both Stats and the
// recovery.replay.reused_ops counter.
func TestWarmResumeReplaysOnlySuffix(t *testing.T) {
	sink := telemetry.New()
	reg := faultinject.NewRegistry(1)
	reg.Arm(&faultinject.Specimen{
		ID: "boom-a", Class: faultinject.Crash, Deterministic: true,
		Prob: 1.0, Op: "mkdir", Point: "entry", PathSubstr: "boomA", MaxFires: 1,
	})
	reg.Arm(&faultinject.Specimen{
		ID: "boom-b", Class: faultinject.Crash, Deterministic: true,
		Prob: 1.0, Op: "mkdir", Point: "entry", PathSubstr: "boomB", MaxFires: 1,
	})
	fs, _, _ := newSupervised(t, Config{
		Base:      basefs.Options{Injector: reg},
		Telemetry: sink,
	})

	const gap1, gap2 = 200, 100
	for i := 0; i < gap1; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/a%03d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mkdir("/boomA", 0o755); err != nil { // fault 1: cold recovery
		t.Fatal(err)
	}
	replayedCold := fs.Stats().OpsReplayed
	if replayedCold < gap1 {
		t.Fatalf("cold recovery replayed %d ops, want >= %d", replayedCold, gap1)
	}
	for i := 0; i < gap2; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/b%03d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mkdir("/boomB", 0o755); err != nil { // fault 2: warm resume
		t.Fatal(err)
	}

	st := fs.Stats()
	if st.Recoveries != 2 || st.Degradations != 0 || st.AppFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	replayedWarm := st.OpsReplayed - replayedCold
	// The warm resume replays the ~gap2 new ops (plus the in-flight op),
	// never the whole log again.
	if replayedWarm > gap2+10 {
		t.Errorf("warm recovery replayed %d ops, want ~%d (suffix only)", replayedWarm, gap2)
	}
	// Everything before the suffix was reused: the gap1 ops plus fault 1's
	// in-flight op.
	if st.OpsReused < gap1 || st.OpsReused > gap1+10 {
		t.Errorf("OpsReused = %d, want ~%d", st.OpsReused, gap1)
	}
	snap := sink.Snapshot()
	if got := snap.Counters["recovery.replay.reused_ops"]; got != st.OpsReused {
		t.Errorf("recovery.replay.reused_ops = %d, Stats().OpsReused = %d", got, st.OpsReused)
	}
	for _, h := range []string{"recovery.stage.plan_ns", "recovery.stage.reboot_ns",
		"recovery.stage.replay_ns", "recovery.stage.install_ns", "recovery.stage.wall_ns"} {
		if snap.Histograms[h].Count != 2 {
			t.Errorf("%s observed %d recoveries, want 2", h, snap.Histograms[h].Count)
		}
	}

	// Both gaps' state must be visible and usable afterwards.
	for _, path := range []string{"/a000", "/a199", "/b000", "/b099", "/boomA", "/boomB"} {
		if _, err := fs.Stat(path); err != nil {
			t.Errorf("Stat(%s) after warm recovery: %v", path, err)
		}
	}
}

// TestWarmStateInvalidatedBySync pins the warm engine's validity key: a
// durable point between faults moves the stable seq and writes the device,
// so the second recovery must fall back to a cold replay of the (now
// truncated) log rather than trust the stale overlay.
func TestWarmStateInvalidatedBySync(t *testing.T) {
	reg := faultinject.NewRegistry(2)
	reg.Arm(&faultinject.Specimen{
		ID: "boom-a", Class: faultinject.Crash, Deterministic: true,
		Prob: 1.0, Op: "mkdir", Point: "entry", PathSubstr: "boomA", MaxFires: 1,
	})
	reg.Arm(&faultinject.Specimen{
		ID: "boom-b", Class: faultinject.Crash, Deterministic: true,
		Prob: 1.0, Op: "mkdir", Point: "entry", PathSubstr: "boomB", MaxFires: 1,
	})
	fs, _, _ := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})

	for i := 0; i < 50; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/a%02d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mkdir("/boomA", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // moves the stable point, writes the device
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/b%02d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mkdir("/boomB", 0o755); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.Recoveries != 2 || st.AppFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.OpsReused != 0 {
		t.Errorf("OpsReused = %d after an intervening sync, want 0 (cold replay)", st.OpsReused)
	}
}

// TestFaultDuringPipelinedRecovery hammers the pipelined engine from many
// goroutines: faults detected while another goroutine's recovery is mid-
// flight (including mid-replay, since the replay stage runs concurrently
// with the reboot) must be superseded by the generation counter and retried
// against the recovered base, never double-recovered and never surfaced to
// the application. Run under -race in CI.
func TestFaultDuringPipelinedRecovery(t *testing.T) {
	reg := faultinject.NewRegistry(3)
	reg.Arm(&faultinject.Specimen{
		ID: "crash-burst", Class: faultinject.Crash, Deterministic: true,
		Prob: 1.0, Op: "mkdir", Point: "entry", PathSubstr: "trigger", MaxFires: 8,
	})
	fs, _, _ := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})
	if err := fs.Mkdir("/warmup", 0o755); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var path string
				if i%10 == 5 {
					// Several goroutines detonate concurrently; whichever wins
					// the gate recovers, the rest must supersede and retry.
					path = fmt.Sprintf("/trigger-%d-%d", w, i)
				} else {
					path = fmt.Sprintf("/d-%d-%d", w, i)
				}
				if err := fs.Mkdir(path, 0o755); err != nil {
					errs <- fmt.Errorf("mkdir %s: %w", path, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := fs.Stats()
	if st.AppFailures != 0 {
		t.Errorf("app failures = %d, want 0", st.AppFailures)
	}
	if st.Recoveries == 0 {
		t.Error("burst never triggered a recovery")
	}
	if st.Degradations != 0 {
		t.Errorf("degradations = %d, want 0", st.Degradations)
	}
	// Every directory must exist afterwards — each worker's ops either
	// executed on the base or were reconstructed by a recovery.
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			path := fmt.Sprintf("/d-%d-%d", w, i)
			if i%10 == 5 {
				path = fmt.Sprintf("/trigger-%d-%d", w, i)
			}
			if _, err := fs.Stat(path); err != nil {
				t.Fatalf("Stat(%s): %v", path, err)
			}
		}
	}
	// No machinery leaked: every recovery's prefetch crew, overlap-fsck
	// goroutine, and reboot helpers must be joined once the burst settles.
	// Aborted pipelines (superseded recoveries) are the interesting case.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines: %d before burst, %d after settling\n%s",
			baseline, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestSequentialRecoveryMatchesPipelined runs the same faulty workload
// through the engine with and without its parallelism and checks each
// against the bug-free specification: the overlap is a latency optimization,
// never a semantic change.
func TestSequentialRecoveryMatchesPipelined(t *testing.T) {
	for _, workers := range []int{0, 1} { // 0 selects the default
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := faultinject.NewRegistry(4)
			reg.Arm(&faultinject.Specimen{
				ID: "det-crash", Class: faultinject.Crash, Deterministic: true,
				Prob: 1.0, Op: "create", Point: "entry", PathSubstr: "trigger",
			})
			fs, _, sb := newSupervised(t, Config{
				Base:            basefs.Options{Injector: reg},
				RecoveryWorkers: workers,
			})
			trace := workload.Generate(workload.Config{
				Profile: workload.MetaHeavy, Seed: 42, NumOps: 400, Superblock: sb, SyncEvery: 120,
			})
			// Splice in detonations so recoveries happen at several depths.
			trace = append(trace,
				&oplog.Op{Kind: oplog.KCreate, Path: "/trigger-1", Perm: 0o644},
				&oplog.Op{Kind: oplog.KCreate, Path: "/trigger-2", Perm: 0o644},
			)
			outcome, state := runAgainstModel(t, fs, sb, trace)
			for i, d := range outcome {
				if i >= 5 {
					break
				}
				t.Errorf("outcome: %s", d)
			}
			for i, d := range state {
				if i >= 5 {
					break
				}
				t.Errorf("state: %s", d)
			}
			st := fs.Stats()
			if st.Recoveries < 2 {
				t.Errorf("recoveries = %d, want >= 2", st.Recoveries)
			}
			if st.AppFailures != 0 {
				t.Errorf("app failures = %d", st.AppFailures)
			}
		})
	}
}
