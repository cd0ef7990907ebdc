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

// TestBackToBackFaultsCheckAndReplayWholeGap plants two faults with no
// durable point between them. Every recovery runs the one path — plan,
// reboot, check, fresh shadow, replay, install — so the second one, over the
// baseline the first one verified, must run a scoped check and replay the
// whole gap since the stable point: both gaps and the first fault's op. No
// degradation or application failure may be counted, and the state must
// match the specification, on one core and on many.
func TestBackToBackFaultsCheckAndReplayWholeGap(t *testing.T) {
	forEachProcs(t, []int{1, 0}, func(t *testing.T) {
		sink := telemetry.New()
		fs, _, sb := newSupervised(t, Config{
			Base:      basefs.Options{Injector: plantTwoFaults(1)},
			Telemetry: sink,
		})
		const gap1, gap2 = 200, 100
		trace := []*oplog.Op{
			{Kind: oplog.KCreate, Path: "/f", Perm: 0o644},
		}
		for i := 0; i < gap1-1; i++ {
			trace = append(trace, &oplog.Op{Kind: oplog.KMkdir, Path: fmt.Sprintf("/a%03d", i), Perm: 0o755})
		}
		trace = append(trace, &oplog.Op{Kind: oplog.KMkdir, Path: "/boomA", Perm: 0o755})
		for i := 0; i < gap2; i++ {
			if i%2 == 0 {
				trace = append(trace, &oplog.Op{Kind: oplog.KWrite, FD: 0, Off: int64(i) * 100, Data: []byte(fmt.Sprintf("b%03d", i))})
			} else {
				trace = append(trace, &oplog.Op{Kind: oplog.KMkdir, Path: fmt.Sprintf("/b%03d", i), Perm: 0o755})
			}
		}
		trace = append(trace, &oplog.Op{Kind: oplog.KMkdir, Path: "/boomB", Perm: 0o755})

		outcome, state := runAgainstModel(t, fs, sb, trace)
		for _, d := range outcome {
			t.Errorf("outcome: %s", d)
		}
		for _, d := range state {
			t.Errorf("state: %s", d)
		}
		st := fs.Stats()
		if st.Recoveries != 2 || st.Degradations != 0 || st.AppFailures != 0 {
			t.Fatalf("recoveries=%d degradations=%d appFailures=%d, want 2/0/0",
				st.Recoveries, st.Degradations, st.AppFailures)
		}
		if st.FsckFull != 1 || st.FsckScoped != 1 {
			t.Errorf("checks: full=%d scoped=%d, want the first full and the second scoped", st.FsckFull, st.FsckScoped)
		}
		// The first recovery replays gap1 and its in-flight op; the second
		// replays all of that again, then gap2 and its own in-flight op.
		if want := int64(gap1 + 1 + gap1 + 1 + gap2 + 1); st.OpsReplayed < want {
			t.Errorf("OpsReplayed = %d, want at least %d: the second recovery replays both gaps", st.OpsReplayed, want)
		}
		snap := sink.Snapshot()
		for _, h := range []string{"recovery.stage.plan_ns", "recovery.stage.reboot_ns", "recovery.stage.fsck_ns",
			"recovery.stage.replay_ns", "recovery.stage.absorb_ns", "recovery.stage.wall_ns"} {
			if n := snap.Histograms[h].Count; n != 2 {
				t.Errorf("%s observed %d recoveries, want 2", h, n)
			}
		}
	})
}

// forEachProcs runs body once per GOMAXPROCS setting in procs, each as the
// subtest workers=N: 1 pins the runtime to one core, as benchmark/run.sh
// runs the engine, and 0 keeps the default (runtime.GOMAXPROCS(0) changes
// nothing). Recovery must give the same result on one core and on many.
func forEachProcs(t *testing.T, procs []int, body func(t *testing.T)) {
	for _, n := range procs {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			body(t)
		})
	}
}

// TestFaultDuringPipelinedRecovery hammers the recovery engine from many
// goroutines: faults detected while another goroutine's recovery is in
// flight must be superseded by the generation counter and retried against
// the recovered base, never double-recovered and never surfaced to the
// application. Run under -race in CI.
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
	// No machinery leaked: every recovery's helpers (the full check's scan
	// worker among them) must be joined once the burst settles. Superseded
	// recoveries are the interesting case.
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

// TestSequentialRecoveryMatchesPipelined runs a faulty workload with
// recoveries at several depths through the engine, on one core and at the
// default GOMAXPROCS, and checks each run against the bug-free specification.
func TestSequentialRecoveryMatchesPipelined(t *testing.T) {
	forEachProcs(t, []int{0, 1}, func(t *testing.T) {
		reg := faultinject.NewRegistry(4)
		reg.Arm(&faultinject.Specimen{
			ID: "det-crash", Class: faultinject.Crash, Deterministic: true,
			Prob: 1.0, Op: "create", Point: "entry", PathSubstr: "trigger",
		})
		fs, _, sb := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})
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
