package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/mkfs"
	"repro/internal/telemetry"
)

func mountTelemetry(t *testing.T, cfg Config) (*FS, *telemetry.Sink) {
	t.Helper()
	dev := blockdev.NewMem(16384)
	if _, err := mkfs.Format(dev, mkfs.Options{}); err != nil {
		t.Fatal(err)
	}
	sink := telemetry.New()
	cfg.Telemetry = sink
	fs, err := Mount(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs, sink
}

// TestRecoveryTraceStages checks that every recovery the supervisor
// performs, in every mode, leaves one telemetry trace that names its
// trigger, mode and outcome and carries every stage of RecoveryPhases in
// execution order, with non-negative durations that sum to its Wall.
func TestRecoveryTraceStages(t *testing.T) {
	stages := RecoveryPhases{}.spans()
	for _, mode := range []Mode{ModeRAE, ModeCrashRestart, ModeNaiveReplay} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := faultinject.NewRegistry(1)
			reg.Arm(&faultinject.Specimen{
				ID: "tel-crash", Class: faultinject.Crash,
				Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "boom",
			})
			fs, sink := mountTelemetry(t, Config{Mode: mode, Base: basefs.Options{Injector: reg}})
			defer fs.Kill()

			// Build up a few recorded ops, then detonate twice.
			if err := fs.Mkdir("/a", 0o755); err != nil {
				t.Fatal(err)
			}
			fd, err := fs.Create("/a/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.WriteAt(fd, 0, []byte("x")); err != nil {
				t.Fatal(err)
			}
			_ = fs.Mkdir("/boom1", 0o755)
			_ = fs.Mkdir("/boom2", 0o755)

			st := fs.Stats()
			if st.Recoveries != 2 {
				t.Fatalf("recoveries = %d, want 2", st.Recoveries)
			}
			traces := sink.RecoveryTraces()
			if len(traces) != 2 {
				t.Fatalf("retained traces = %d, want 2", len(traces))
			}
			wantOutcome := map[Mode]string{
				ModeRAE: "recovered", ModeCrashRestart: "crash-restart", ModeNaiveReplay: "degraded",
			}[mode]
			for _, tr := range traces {
				if tr.Trigger != "panic" || tr.Mode != mode.String() || tr.Outcome != wantOutcome {
					t.Errorf("trace %d = %s/%s/%s, want panic/%s/%s", tr.ID, tr.Trigger, tr.Mode, tr.Outcome, mode, wantOutcome)
				}
				if len(tr.Spans) != len(stages) {
					t.Fatalf("trace %d has %d spans, want %d", tr.ID, len(tr.Spans), len(stages))
				}
				var sum time.Duration
				for i, want := range stages {
					sp := tr.Spans[i]
					if sp.Stage != want.Stage {
						t.Errorf("trace %d span %d = %q, want %q", tr.ID, i, sp.Stage, want.Stage)
					}
					if sp.Duration < 0 {
						t.Errorf("trace %d stage %q duration %v < 0", tr.ID, sp.Stage, sp.Duration)
					}
					sum += sp.Duration
				}
				if tr.Wall <= 0 || sum != tr.Wall {
					t.Errorf("trace %d: stages sum to %v, wall = %v, want a positive wall they sum to", tr.ID, sum, tr.Wall)
				}
			}
			if got := sink.Counter("recovery.trigger.panic").Value(); got != 2 {
				t.Errorf("recovery.trigger.panic = %d, want 2", got)
			}
		})
	}
}

// TestWarnAndDegradeEventsJournaled checks satellite 2: WARN records and
// degradation diagnostics flow through the telemetry event journal without
// changing return-value behavior.
func TestWarnAndDegradeEventsJournaled(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(&faultinject.Specimen{
		ID: "tel-warn", Class: faultinject.Warn,
		Deterministic: true, Op: "unlink", Point: "entry", PathSubstr: "warned",
	})
	fs, sink := mountTelemetry(t, Config{Base: basefs.Options{Injector: reg}, EscalateWarns: true})
	defer fs.Kill()

	fd, err := fs.Create("/warned", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	// The WARN fires inside unlink; escalation recovers and the op still
	// succeeds via the shadow, so the application sees no failure.
	if err := fs.Unlink("/warned"); err != nil {
		t.Fatalf("unlink should be masked, got %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range sink.Events() {
		kinds[ev.Kind]++
	}
	if kinds["warn"] == 0 {
		t.Errorf("no 'warn' event journaled: %v", kinds)
	}
	if kinds["warn-escalated"] == 0 {
		t.Errorf("no 'warn-escalated' event journaled: %v", kinds)
	}
	if kinds["recovery"] == 0 {
		t.Errorf("no 'recovery' event journaled: %v", kinds)
	}
	if got := sink.Counter("basefs.warns").Value(); got == 0 {
		t.Error("basefs.warns counter not incremented")
	}
}

// TestTelemetryConcurrentWorkload hammers a supervised filesystem from many
// goroutines while a deterministic crash specimen fires and snapshots are
// taken concurrently; it exists to run under -race, and asserts the metrics
// that must be exact.
func TestTelemetryConcurrentWorkload(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(&faultinject.Specimen{
		ID: "tel-conc-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "boom",
	})
	fs, sink := mountTelemetry(t, Config{Base: basefs.Options{Injector: reg}})
	defer fs.Kill()

	const workers, per = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				path := fmt.Sprintf("/w%d-%d", w, i)
				if i%10 == 9 {
					_ = fs.Mkdir(fmt.Sprintf("/boom-w%d-%d", w, i), 0o755)
					continue
				}
				fd, err := fs.Create(path, 0o644)
				if err != nil {
					continue
				}
				_, _ = fs.WriteAt(fd, 0, []byte("data"))
				_ = fs.Close(fd)
				if i%7 == 0 {
					_ = fs.Sync()
				}
			}
		}(w)
	}
	// Snapshot concurrently with the workload.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = sink.Snapshot()
			_ = sink.Events()
			_ = sink.RecoveryTraces()
		}
	}()
	wg.Wait()
	<-done

	st := fs.Stats()
	if st.Recoveries == 0 {
		t.Fatal("expected recoveries under the crash specimen")
	}
	if got := sink.Counter("recovery.trigger.panic").Value(); got != st.Recoveries {
		t.Errorf("recovery.trigger.panic = %d, want %d", got, st.Recoveries)
	}
	for _, tr := range sink.RecoveryTraces() {
		var sum time.Duration
		for _, sp := range tr.Spans {
			sum += sp.Duration
		}
		if len(tr.Spans) != len(RecoveryPhases{}.spans()) || sum != tr.Wall {
			t.Fatalf("trace %d has %d spans summing to %v, wall %v", tr.ID, len(tr.Spans), sum, tr.Wall)
		}
	}
	snap := sink.Snapshot()
	if snap.Counters["basefs.op.create"] != 0 {
		// op histograms are histograms, not counters: presence here is a bug
		t.Error("per-op instrument registered as a counter")
	}
	if snap.Histograms["basefs.op.create"].Count == 0 {
		t.Error("basefs.op.create histogram has no observations")
	}
	if snap.Counters["oplog.appends"] == 0 {
		t.Error("oplog.appends counter has no increments")
	}
	if snap.Counters["faultinject.fired"] == 0 {
		t.Error("faultinject.fired counter has no increments")
	}
}

// TestNoTelemetry checks the opt-out: a supervisor mounted with NoTelemetry
// has a nil sink and still recovers correctly.
func TestNoTelemetry(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(&faultinject.Specimen{
		ID: "tel-off-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "boom",
	})
	dev := blockdev.NewMem(16384)
	if _, err := mkfs.Format(dev, mkfs.Options{}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Config{NoTelemetry: true, Base: basefs.Options{Injector: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	if fs.Telemetry() != nil {
		t.Fatal("NoTelemetry mount still has a sink")
	}
	if err := fs.Mkdir("/boom", 0o755); err != nil {
		t.Fatalf("recovery without telemetry failed: %v", err)
	}
	if fs.Stats().Recoveries != 1 {
		t.Fatal("expected one recovery")
	}
}

// TestDefaultTelemetry checks the always-on default: a zero-value Config
// wires the process-global sink.
func TestDefaultTelemetry(t *testing.T) {
	dev := blockdev.NewMem(16384)
	if _, err := mkfs.Format(dev, mkfs.Options{}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	if fs.Telemetry() != telemetry.Default() {
		t.Fatal("zero-value Config should use telemetry.Default()")
	}
}
