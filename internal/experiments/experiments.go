// Package experiments implements the harnesses that reproduce the paper's
// claims in EXPERIMENTS.md: common-case throughput of base vs shadow vs RAE
// vs NVP-3 (E3, E6), recovery latency decomposed into the paper's phases as
// a function of the recorded-sequence length (E4), and availability under a
// bug-arrival process for RAE against the baselines (E5). The same
// functions drive cmd/shadowbench and the root bench suite, so printed
// tables and testing.B numbers come from one code path. Performance of the
// layers this repository adds is measured by benchmark/, not here.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/mkfs"
	"repro/internal/oplog"
	"repro/internal/shadowfs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ImageBlocks is the default experiment image size (64 MiB).
const ImageBlocks = 16384

// System names an implementation under test.
type System int

// Systems.
const (
	SysBase System = iota
	SysShadow
	SysRAE
	SysNVP3
)

// String returns the system's table label.
func (s System) String() string {
	switch s {
	case SysBase:
		return "base"
	case SysShadow:
		return "shadow"
	case SysRAE:
		return "rae"
	case SysNVP3:
		return "nvp3"
	}
	return "unknown"
}

// newImage formats a fresh in-memory device.
func newImage(blocks uint32) (*blockdev.Mem, *disklayout.Superblock, error) {
	dev := blockdev.NewMem(blocks)
	sb, err := mkfs.Format(dev, mkfs.Options{})
	return dev, sb, err
}

// applyTrace runs every op of a trace against fs, returning ops applied.
func applyTrace(fs fsapi.FS, trace []*oplog.Op) int {
	return workload.Drive(fs, trace).Applied
}

// ThroughputResult is one cell of the E3/E6 table.
type ThroughputResult struct {
	System    System
	Profile   workload.Profile
	Ops       int
	Elapsed   time.Duration
	OpsPerSec float64
}

// Throughput measures ops/sec for one system on one workload profile. The
// trace is generated outside the timed region; ENOSPC-free geometry.
func Throughput(sys System, profile workload.Profile, numOps int, seed int64) (ThroughputResult, error) {
	res := ThroughputResult{System: sys, Profile: profile}
	trace := workload.Generate(workload.Config{
		Profile: profile, Seed: seed, NumOps: numOps, SyncEvery: 200,
	})
	var fs fsapi.FS
	var cleanup func()
	switch sys {
	case SysBase:
		dev, _, err := newImage(ImageBlocks)
		if err != nil {
			return res, err
		}
		base, err := basefs.Mount(dev, basefs.Options{})
		if err != nil {
			return res, err
		}
		fs, cleanup = base, base.Kill
	case SysShadow:
		dev, _, err := newImage(ImageBlocks)
		if err != nil {
			return res, err
		}
		sh, err := shadowfs.New(dev, shadowfs.Options{SkipFsck: true})
		if err != nil {
			return res, err
		}
		fs, cleanup = sh, func() {}
	case SysRAE:
		dev, _, err := newImage(ImageBlocks)
		if err != nil {
			return res, err
		}
		sup, err := core.Mount(dev, core.Config{})
		if err != nil {
			return res, err
		}
		fs, cleanup = sup, sup.Kill
	case SysNVP3:
		nvp, err := core.NewNVP3(ImageBlocks, basefs.Options{})
		if err != nil {
			return res, err
		}
		start := time.Now()
		for _, rec := range trace {
			op := rec.Clone()
			op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
			_ = nvp.Do(op)
		}
		res.Elapsed = time.Since(start)
		res.Ops = len(trace)
		res.OpsPerSec = float64(res.Ops) / res.Elapsed.Seconds()
		return res, nil
	}
	defer cleanup()
	start := time.Now()
	res.Ops = applyTrace(fs, trace)
	res.Elapsed = time.Since(start)
	res.OpsPerSec = float64(res.Ops) / res.Elapsed.Seconds()
	return res, nil
}

// RecoveryResult is one point of the E4 series.
type RecoveryResult struct {
	LogLen int
	Phases core.RecoveryPhases
	// Trace is the recovery's telemetry trace: the six canonical phases with
	// wall-clock durations, measured on an isolated sink.
	Trace telemetry.TraceSnapshot
}

// RecoveryLatency measures one recovery whose operation log holds logLen
// recorded operations: a workload runs (no sync, so nothing truncates the
// log), then a deterministic crash fires and the recovery is timed by the
// supervisor's own phase instrumentation.
func RecoveryLatency(logLen int, seed int64) (RecoveryResult, error) {
	res := RecoveryResult{LogLen: logLen}
	dev, sb, err := newImage(ImageBlocks)
	if err != nil {
		return res, err
	}
	reg := faultinject.NewRegistry(seed)
	reg.Arm(&faultinject.Specimen{
		ID: "bench-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "setperm", Point: "entry", PathSubstr: "detonate",
	})
	sink := telemetry.New() // isolated: repeated series must not pollute Default
	sup, err := core.Mount(dev, core.Config{
		Base:      basefs.Options{Injector: reg},
		Telemetry: sink,
	})
	if err != nil {
		return res, err
	}
	defer sup.Kill()
	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: seed, NumOps: logLen * 2, Superblock: sb,
	})
	// Feed ops until the recorded log reaches the target length.
	for _, rec := range trace {
		if sup.LogLen() >= logLen {
			break
		}
		op := rec.Clone()
		if op.Kind == oplog.KFsync || op.Kind == oplog.KSync {
			continue // keep the log growing
		}
		op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		_ = oplog.Apply(sup, op)
	}
	if sup.LogLen() < logLen {
		return res, fmt.Errorf("experiments: log only reached %d/%d ops", sup.LogLen(), logLen)
	}
	// Detonate.
	if err := sup.SetPerm("/detonate-missing", 0o600); err == nil {
		return res, fmt.Errorf("experiments: detonation op unexpectedly succeeded")
	}
	st := sup.Stats()
	if st.Recoveries != 1 || len(st.Phases) != 1 {
		return res, fmt.Errorf("experiments: expected 1 recovery, got %d", st.Recoveries)
	}
	res.LogLen = logLen
	res.Phases = st.Phases[0]
	tr, ok := sink.LastRecoveryTrace()
	if !ok {
		return res, fmt.Errorf("experiments: recovery produced no telemetry trace")
	}
	res.Trace = tr
	return res, nil
}

// AvailabilityResult is one row of the E5 table.
type AvailabilityResult struct {
	Mode         core.Mode
	Ops          int
	Completed    int64 // operations that returned the specification outcome
	AppFailures  int64
	Recoveries   int64
	Degradations int64
	FDsLost      int64
	Downtime     time.Duration
	Elapsed      time.Duration
}

// Availability runs a workload with a deterministic crash specimen firing on
// a recurring path pattern and reports how each failure-handling mode fares
// (E5). The same seed gives every mode the same workload and bug stream.
func Availability(mode core.Mode, numOps int, seed int64) (AvailabilityResult, error) {
	res := AvailabilityResult{Mode: mode, Ops: numOps}
	dev, sb, err := newImage(ImageBlocks)
	if err != nil {
		return res, err
	}
	reg := faultinject.NewRegistry(seed)
	// A deterministic bug on mkdir of any path containing "box" — metaheavy
	// creates such directories steadily, so the bug fires repeatedly.
	reg.Arm(&faultinject.Specimen{
		ID: "avail-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "box",
	})
	sup, err := core.Mount(dev, core.Config{
		Mode: mode,
		Base: basefs.Options{Injector: reg},
	})
	if err != nil {
		return res, err
	}
	defer sup.Kill()
	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: seed, NumOps: numOps, Superblock: sb, SyncEvery: 100,
	})
	start := time.Now()
	// An operation "completes" for availability purposes when it returns
	// the outcome the bug-free specification would: same errno and, for
	// allocating ops, same numbers — DriveStats.Matched.
	res.Completed = int64(workload.Drive(sup, trace).Matched)
	res.Elapsed = time.Since(start)
	st := sup.Stats()
	res.AppFailures = st.AppFailures
	res.Recoveries = st.Recoveries
	res.Degradations = st.Degradations
	res.FDsLost = st.FDsInvalidated
	res.Downtime = st.TotalDowntime
	return res, nil
}

// OverheadResult is one row of the E6 table.
type OverheadResult struct {
	Profile      workload.Profile
	BaseOpsSec   float64
	RAEOpsSec    float64
	OverheadPct  float64
	PeakLogBytes int
}

// RecordingOverhead compares raw base throughput against RAE-supervised
// throughput on the same trace with no bugs armed (E6): the difference is
// the cost of operation recording plus supervision.
func RecordingOverhead(profile workload.Profile, numOps int, seed int64) (OverheadResult, error) {
	res := OverheadResult{Profile: profile}
	baseRes, err := Throughput(SysBase, profile, numOps, seed)
	if err != nil {
		return res, err
	}
	// RAE run, instrumented for log size.
	dev, _, err := newImage(ImageBlocks)
	if err != nil {
		return res, err
	}
	sup, err := core.Mount(dev, core.Config{})
	if err != nil {
		return res, err
	}
	defer sup.Kill()
	trace := workload.Generate(workload.Config{
		Profile: profile, Seed: seed, NumOps: numOps, SyncEvery: 200,
	})
	start := time.Now()
	applyTrace(sup, trace)
	elapsed := time.Since(start)
	res.BaseOpsSec = baseRes.OpsPerSec
	res.RAEOpsSec = float64(len(trace)) / elapsed.Seconds()
	res.OverheadPct = (res.BaseOpsSec - res.RAEOpsSec) / res.BaseOpsSec * 100
	res.PeakLogBytes = sup.Stats().PeakLogLen
	return res, nil
}
