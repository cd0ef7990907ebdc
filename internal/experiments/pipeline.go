package experiments

// E12 — recovery latency of the staged engine with its overlap (the default
// RecoveryWorkers) vs the same stages run one after another (RecoveryWorkers
// 1), as a function of the recorded-gap size, plus the warm-replayer
// repeat-fault measurement. The workload phase runs at memory speed; a
// per-IO device service time is armed just before the detonation so only
// the recovery pays it, modeling a fast NVMe device without slowing the
// series setup.

import (
	"fmt"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/oplog"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// RecoveryIOLatency is E12's per-block device service time (NVMe-class).
const RecoveryIOLatency = 10 * time.Microsecond

// PipelineResult is one row of the E12 gap-size series.
type PipelineResult struct {
	LogLen     int
	Sequential core.RecoveryPhases // RecoveryWorkers 1
	Pipelined  core.RecoveryPhases // the default
	Speedup    float64             // sequential wall / pipelined wall
}

// RecoveryPipeline measures one gap size at RecoveryWorkers 1 and at the
// default (E12). The same seed gives both runs the same workload, so the
// recorded gap and the on-disk state at detonation are identical; only the
// recovery's parallelism differs.
func RecoveryPipeline(logLen int, seed int64, ioLat time.Duration) (PipelineResult, error) {
	res := PipelineResult{LogLen: logLen}
	seq, err := recoverOnce(logLen, seed, 1, ioLat)
	if err != nil {
		return res, err
	}
	pip, err := recoverOnce(logLen, seed, 0, ioLat)
	if err != nil {
		return res, err
	}
	res.Sequential, res.Pipelined = seq, pip
	if pip.Total() > 0 {
		res.Speedup = float64(seq.Total()) / float64(pip.Total())
	}
	return res, nil
}

// recoverOnce runs a workload to the target gap size, arms the device
// service time, detonates a deterministic crash, and returns the recovery's
// phase breakdown.
func recoverOnce(logLen int, seed int64, workers int, ioLat time.Duration) (core.RecoveryPhases, error) {
	var ph core.RecoveryPhases
	dev, _, err := newImage(ImageBlocks)
	if err != nil {
		return ph, err
	}
	reg := faultinject.NewRegistry(seed)
	reg.Arm(&faultinject.Specimen{
		ID: "e12-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "setperm", Point: "entry", PathSubstr: "detonate",
	})
	sup, err := core.Mount(dev, core.Config{
		Base:            basefs.Options{Injector: reg},
		RecoveryWorkers: workers,
		Telemetry:       telemetry.New(), // isolated
	})
	if err != nil {
		return ph, err
	}
	defer sup.Kill()
	if err := feedGap(sup, logLen, seed); err != nil {
		return ph, err
	}
	if ioLat > 0 {
		plan := blockdev.NewFaultPlan(seed)
		plan.ReadLatency, plan.WriteLatency = ioLat, ioLat
		dev.SetFaults(plan)
	}
	if err := sup.SetPerm("/detonate-missing", 0o600); err == nil {
		return ph, fmt.Errorf("experiments: detonation op unexpectedly succeeded")
	}
	st := sup.Stats()
	if st.Recoveries != 1 || st.Degradations != 0 || len(st.Phases) != 1 {
		return ph, fmt.Errorf("experiments: expected 1 clean recovery, got %+v", st)
	}
	return st.Phases[0], nil
}

// feedGap grows the recorded op log to exactly logLen operations, skipping
// durable points so nothing truncates it.
func feedGap(sup *core.FS, logLen int, seed int64) error {
	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: seed, NumOps: logLen * 2,
	})
	for _, rec := range trace {
		if sup.LogLen() >= logLen {
			return nil
		}
		op := rec.Clone()
		if op.Kind == oplog.KFsync || op.Kind == oplog.KSync {
			continue
		}
		op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		_ = oplog.Apply(sup, op)
	}
	if sup.LogLen() < logLen {
		return fmt.Errorf("experiments: log only reached %d/%d ops", sup.LogLen(), logLen)
	}
	return nil
}

// WarmRepeatResult quantifies the warm-replayer hit: a second fault gap2
// ops after the first replays only ~gap2 ops and skips fsck entirely.
type WarmRepeatResult struct {
	Gap1, Gap2     int
	FirstWall      time.Duration
	SecondWall     time.Duration
	FirstReplayed  int64
	SecondReplayed int64
	Reused         int64
}

// WarmRepeat runs two faults gap2 ops apart with no intervening durable
// point and reports what the second recovery actually replayed (E12, warm
// row). The retained engine makes the second recovery independent of gap1.
func WarmRepeat(gap1, gap2 int, seed int64, ioLat time.Duration) (WarmRepeatResult, error) {
	res := WarmRepeatResult{Gap1: gap1, Gap2: gap2}
	dev, _, err := newImage(ImageBlocks)
	if err != nil {
		return res, err
	}
	reg := faultinject.NewRegistry(seed)
	reg.Arm(&faultinject.Specimen{
		ID: "e12-warm", Class: faultinject.Crash,
		Deterministic: true, Op: "setperm", Point: "entry", PathSubstr: "detonate",
	})
	sup, err := core.Mount(dev, core.Config{
		Base:      basefs.Options{Injector: reg},
		Telemetry: telemetry.New(),
	})
	if err != nil {
		return res, err
	}
	defer sup.Kill()
	if err := feedGap(sup, gap1, seed); err != nil {
		return res, err
	}
	if ioLat > 0 {
		plan := blockdev.NewFaultPlan(seed)
		plan.ReadLatency, plan.WriteLatency = ioLat, ioLat
		dev.SetFaults(plan)
	}
	if err := sup.SetPerm("/detonate-missing", 0o600); err == nil {
		return res, fmt.Errorf("experiments: first detonation unexpectedly succeeded")
	}
	st := sup.Stats()
	if st.Recoveries != 1 || st.Degradations != 0 {
		return res, fmt.Errorf("experiments: first fault: %+v", st)
	}
	res.FirstReplayed = st.OpsReplayed
	res.FirstWall = st.Phases[0].Total()

	// The second gap runs against the armed device latency too; it is small,
	// so the series stays fast.
	dev.SetFaults(nil)
	before := sup.LogLen()
	if err := feedGap(sup, before+gap2, seed+1); err != nil {
		return res, err
	}
	plan := blockdev.NewFaultPlan(seed)
	plan.ReadLatency, plan.WriteLatency = ioLat, ioLat
	dev.SetFaults(plan)
	if err := sup.SetPerm("/detonate-missing", 0o600); err == nil {
		return res, fmt.Errorf("experiments: second detonation unexpectedly succeeded")
	}
	st = sup.Stats()
	if st.Recoveries != 2 || st.Degradations != 0 {
		return res, fmt.Errorf("experiments: second fault: %+v", st)
	}
	res.SecondReplayed = st.OpsReplayed - res.FirstReplayed
	res.SecondWall = st.Phases[1].Total()
	res.Reused = st.OpsReused
	return res, nil
}
