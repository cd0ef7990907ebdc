package core

import (
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/mkfs"
	"repro/internal/workload"
)

// TestAvailabilityByMode is the "continue regardless" claim as counts: the
// same metadata-heavy trace and the same recurring deterministic crash (on
// mkdir of any path containing "box") run under each failure-handling mode.
// RAE returns the specification outcome for every operation and surfaces no
// failure; crash-restart loses descriptors and buffered state, so it fails
// and diverges; naive replay re-fires the bug while re-executing the
// recorded sequence, so it degrades and fails.
func TestAvailabilityByMode(t *testing.T) {
	const ops = 800
	for _, tc := range []struct {
		mode  Mode
		check func(t *testing.T, matched int, st Stats)
	}{
		{ModeRAE, func(t *testing.T, matched int, st Stats) {
			if st.Recoveries == 0 {
				t.Fatal("the bug never fired; the test is vacuous")
			}
			if st.AppFailures != 0 {
				t.Errorf("RAE surfaced %d failures", st.AppFailures)
			}
			if matched != ops {
				t.Errorf("RAE completed %d/%d ops to spec", matched, ops)
			}
		}},
		{ModeCrashRestart, func(t *testing.T, matched int, st Stats) {
			if st.AppFailures == 0 || matched >= ops {
				t.Errorf("crash-restart should lose ops: completed %d/%d, failures %d",
					matched, ops, st.AppFailures)
			}
		}},
		{ModeNaiveReplay, func(t *testing.T, matched int, st Stats) {
			if st.Degradations == 0 {
				t.Errorf("naive replay never degraded under a deterministic bug: %+v", st)
			}
			if st.AppFailures == 0 {
				t.Error("naive replay surfaced no failures under a deterministic bug")
			}
		}},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			dev := blockdev.NewMem(16384)
			sb, err := mkfs.Format(dev, mkfs.Options{})
			if err != nil {
				t.Fatal(err)
			}
			reg := faultinject.NewRegistry(5)
			reg.Arm(&faultinject.Specimen{
				ID: "avail-crash", Class: faultinject.Crash,
				Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "box",
			})
			fs, err := Mount(dev, Config{Mode: tc.mode, Base: basefs.Options{Injector: reg}, NoTelemetry: true})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Kill()
			trace := workload.Generate(workload.Config{
				Profile: workload.MetaHeavy, Seed: 5, NumOps: ops, Superblock: sb, SyncEvery: 100,
			})
			tc.check(t, workload.Drive(fs, trace).Matched, fs.Stats())
		})
	}
}
