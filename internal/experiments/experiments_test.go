package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestThroughputShape is experiment E3's invariant: the base must beat the
// shadow by a wide margin in the common case (caches + async IO vs none),
// and RAE must track the base far more closely than NVP-3 does.
func TestThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs real timing")
	}
	const ops = 4000
	base, err := Throughput(SysBase, workload.ReadMostly, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := Throughput(SysShadow, workload.ReadMostly, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.OpsPerSec < 2*shadow.OpsPerSec {
		t.Errorf("base (%.0f op/s) does not dominate shadow (%.0f op/s)",
			base.OpsPerSec, shadow.OpsPerSec)
	}
	rae, err := Throughput(SysRAE, workload.ReadMostly, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rae.OpsPerSec < shadow.OpsPerSec {
		t.Errorf("rae (%.0f op/s) slower than the shadow itself (%.0f op/s)",
			rae.OpsPerSec, shadow.OpsPerSec)
	}
}

func TestRecoveryLatencyScalesWithLog(t *testing.T) {
	small, err := RecoveryLatency(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RecoveryLatency(512, 3)
	if err != nil {
		t.Fatal(err)
	}
	if small.Phases.Total() <= 0 || large.Phases.Total() <= 0 {
		t.Fatal("zero-duration recovery")
	}
	if large.Phases.Replay <= small.Phases.Replay {
		t.Errorf("replay phase did not grow with log: %v (16 ops) vs %v (512 ops)",
			small.Phases.Replay, large.Phases.Replay)
	}
}

// TestAvailabilityShape is experiment E5's invariant: under a recurring
// deterministic bug, RAE completes (essentially) everything with zero
// app-visible failures; crash-restart surfaces a failure per firing; naive
// replay degrades because re-execution re-triggers the bug.
func TestAvailabilityShape(t *testing.T) {
	const ops = 800
	rae, err := Availability(core.ModeRAE, ops, 5)
	if err != nil {
		t.Fatal(err)
	}
	crash, err := Availability(core.ModeCrashRestart, ops, 5)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Availability(core.ModeNaiveReplay, ops, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rae.Recoveries == 0 {
		t.Fatal("the bug never fired; experiment is vacuous")
	}
	if rae.AppFailures != 0 {
		t.Errorf("RAE surfaced %d failures", rae.AppFailures)
	}
	if rae.Completed != int64(rae.Ops) {
		t.Errorf("RAE completed %d/%d ops to spec", rae.Completed, rae.Ops)
	}
	if crash.AppFailures == 0 || crash.Completed >= rae.Completed {
		t.Errorf("crash-restart should lose ops: completed %d, failures %d",
			crash.Completed, crash.AppFailures)
	}
	if naive.Degradations == 0 {
		t.Errorf("naive replay never degraded under a deterministic bug: %+v", naive)
	}
	if naive.AppFailures == 0 {
		t.Errorf("naive replay surfaced no failures under a deterministic bug")
	}
}

func TestRecordingOverheadReasonable(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead test needs real timing")
	}
	res, err := RecordingOverhead(workload.MetaHeavy, 3000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RAEOpsSec <= 0 || res.BaseOpsSec <= 0 {
		t.Fatal("degenerate measurement")
	}
	// Recording must not cost an order of magnitude.
	if res.RAEOpsSec < res.BaseOpsSec/10 {
		t.Errorf("recording overhead pathological: base %.0f, rae %.0f op/s",
			res.BaseOpsSec, res.RAEOpsSec)
	}
}

// TestLatencyTailShape is E4b's invariant: bugs inflate the tail, not the
// median — the application's common-case experience is untouched.
func TestLatencyTailShape(t *testing.T) {
	if testing.Short() {
		t.Skip("latency shape needs real timing")
	}
	clean, err := Latency(0, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	buggy, err := Latency(0.02, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if buggy.Recoveries == 0 {
		t.Fatal("no recoveries at 2% bug rate")
	}
	// Median stays within an order of magnitude; the max inflates well past
	// the clean run's max (each recovery costs milliseconds).
	if buggy.P50 > clean.P50*10 {
		t.Errorf("median inflated: clean %v, buggy %v", clean.P50, buggy.P50)
	}
	if buggy.Max < clean.P50*100 {
		t.Errorf("recoveries invisible in the tail: max %v", buggy.Max)
	}
}
