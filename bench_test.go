// Package repro's root bench suite regenerates every quantitative artifact
// as a testing.B benchmark, one per experiment in EXPERIMENTS.md:
//
//	BenchmarkTable1Classify          E1  Table 1 classification
//	BenchmarkBaseVsShadowThroughput  E3  Figure 2's base ≫ shadow contrast
//	BenchmarkRecoveryLatency         E4  recovery cost vs recorded-log length
//	BenchmarkAvailabilityUnderBugs   E5  RAE vs baselines under bug arrivals
//	BenchmarkRecordingOverhead       E6  common-case supervision cost
//	BenchmarkDifferentialThroughput  E7  §4.3 testing-phase throughput
//	BenchmarkFsck                    E8  image-validation cost
//
// plus micro-benchmarks for the substrates (journal commit, buffer cache,
// shadow replay) that back the ablation discussion in EXPERIMENTS.md.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/bugstudy"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/journal"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
	"repro/internal/shadowfs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// BenchmarkTable1Classify regenerates Table 1 (E1): corpus classification
// throughput, with the cross-tab verified each iteration.
func BenchmarkTable1Classify(b *testing.B) {
	corpus := bugstudy.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := bugstudy.Table1(corpus)
		if got != bugstudy.Table1Want {
			b.Fatal("Table 1 mismatch")
		}
	}
	b.ReportMetric(256, "bugs/op")
}

// BenchmarkFigure1Tally regenerates Figure 1 (E2).
func BenchmarkFigure1Tally(b *testing.B) {
	corpus := bugstudy.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := bugstudy.Figure1(corpus)
		if len(fig) != 11 {
			b.Fatal("Figure 1 year count wrong")
		}
	}
}

// BenchmarkBaseVsShadowThroughput is E3: the same workload applied to each
// system. Compare the ns/op across sub-benchmarks; the base must win by a
// wide margin over the shadow, with RAE close to the base.
func BenchmarkBaseVsShadowThroughput(b *testing.B) {
	for _, profile := range workload.Profiles() {
		trace := workload.Generate(workload.Config{
			Profile: profile, Seed: 1, NumOps: 2000, SyncEvery: 200,
		})
		for _, sys := range []experiments.System{
			experiments.SysBase, experiments.SysShadow, experiments.SysRAE, experiments.SysNVP3,
		} {
			b.Run(fmt.Sprintf("%s/%s", profile, sys), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var fs interface {
						// minimal common surface for this bench
					}
					_ = fs
					dev := blockdev.NewMem(experiments.ImageBlocks)
					if _, err := mkfs.Format(dev, mkfs.Options{}); err != nil {
						b.Fatal(err)
					}
					var apply func(op *oplog.Op)
					var cleanup func()
					switch sys {
					case experiments.SysBase:
						base, err := basefs.Mount(dev, basefs.Options{})
						if err != nil {
							b.Fatal(err)
						}
						apply = func(op *oplog.Op) { _ = oplog.Apply(base, op) }
						cleanup = base.Kill
					case experiments.SysShadow:
						sh, err := shadowfs.New(dev, shadowfs.Options{SkipFsck: true})
						if err != nil {
							b.Fatal(err)
						}
						apply = func(op *oplog.Op) { _ = oplog.Apply(sh, op) }
						cleanup = func() {}
					case experiments.SysRAE:
						sup, err := core.Mount(dev, core.Config{})
						if err != nil {
							b.Fatal(err)
						}
						apply = func(op *oplog.Op) { _ = oplog.Apply(sup, op) }
						cleanup = sup.Kill
					case experiments.SysNVP3:
						nvp, err := core.NewNVP3(experiments.ImageBlocks, basefs.Options{})
						if err != nil {
							b.Fatal(err)
						}
						apply = func(op *oplog.Op) { _ = nvp.Do(op) }
						cleanup = func() {}
					}
					b.StartTimer()
					for _, rec := range trace {
						op := rec.Clone()
						op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
						apply(op)
					}
					b.StopTimer()
					cleanup()
					b.StartTimer()
				}
				b.ReportMetric(float64(len(trace)), "fsops/op")
			})
		}
	}
}

// BenchmarkRecoveryLatency is E4: one full recovery per iteration, swept
// over recorded-log lengths. The per-phase split is printed by
// cmd/shadowbench -series recovery.
func BenchmarkRecoveryLatency(b *testing.B) {
	for _, logLen := range []int{8, 64, 512, 2048} {
		b.Run(fmt.Sprintf("log%d", logLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RecoveryLatency(logLen, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if res.Phases.Total() <= 0 {
					b.Fatal("zero recovery time")
				}
			}
		})
	}
}

// BenchmarkAvailabilityUnderBugs is E5: a full workload under a recurring
// deterministic bug, per failure-handling mode.
func BenchmarkAvailabilityUnderBugs(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeRAE, core.ModeCrashRestart, core.ModeNaiveReplay} {
		b.Run(mode.String(), func(b *testing.B) {
			var lastCorrect, lastFailures int64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Availability(mode, 1000, 5)
				if err != nil {
					b.Fatal(err)
				}
				lastCorrect, lastFailures = res.Completed, res.AppFailures
			}
			b.ReportMetric(float64(lastCorrect), "correct")
			b.ReportMetric(float64(lastFailures), "appfail")
		})
	}
}

// BenchmarkRecordingOverhead is E6: the supervised ops path with no bugs,
// against the raw base (compare with the base sub-benchmarks of E3). The
// supervisor runs with telemetry disabled so the measurement isolates
// recording cost; BenchmarkTelemetryOverhead quantifies the telemetry delta
// on the same loop.
func BenchmarkRecordingOverhead(b *testing.B) {
	for _, cfg := range []struct {
		label     string
		profile   workload.Profile
		syncEvery int
	}{
		{workload.MetaHeavy.String(), workload.MetaHeavy, 200},
		{workload.ReadMostly.String(), workload.ReadMostly, 200},
		// fsync-heavy: a sync every 8 ops stresses the group-commit and
		// lazy-checkpoint path rather than the in-memory op stream.
		{"fsyncheavy", workload.MetaHeavy, 8},
	} {
		trace := workload.Generate(workload.Config{
			Profile: cfg.profile, Seed: 2, NumOps: 2000, SyncEvery: cfg.syncEvery,
		})
		b.Run("base/"+cfg.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := blockdev.NewMem(experiments.ImageBlocks)
				mkfs.Format(dev, mkfs.Options{})
				base, err := basefs.Mount(dev, basefs.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, rec := range trace {
					op := rec.Clone()
					op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
					_ = oplog.Apply(base, op)
				}
				b.StopTimer()
				base.Kill()
				b.StartTimer()
			}
		})
		b.Run("rae/"+cfg.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := blockdev.NewMem(experiments.ImageBlocks)
				mkfs.Format(dev, mkfs.Options{})
				sup, err := core.Mount(dev, core.Config{NoTelemetry: true})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, rec := range trace {
					op := rec.Clone()
					op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
					_ = oplog.Apply(sup, op)
				}
				b.StopTimer()
				sup.Kill()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkTelemetryOverhead isolates the observability subsystem's cost on
// the E6 supervised ops loop: "disabled" runs with NoTelemetry (every
// instrumentation point is a nil pointer check), "enabled" feeds a live
// sink. The disabled path is required to stay within 2% of a supervisor
// built without telemetry at all — i.e. E6's rae numbers must not regress.
func BenchmarkTelemetryOverhead(b *testing.B) {
	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: 2, NumOps: 2000, SyncEvery: 200,
	})
	for _, mode := range []string{"disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := blockdev.NewMem(experiments.ImageBlocks)
				mkfs.Format(dev, mkfs.Options{})
				cfg := core.Config{NoTelemetry: mode == "disabled"}
				if mode == "enabled" {
					cfg.Telemetry = telemetry.New()
				}
				sup, err := core.Mount(dev, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, rec := range trace {
					op := rec.Clone()
					op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
					_ = oplog.Apply(sup, op)
				}
				b.StopTimer()
				sup.Kill()
				b.StartTimer()
			}
			b.ReportMetric(float64(len(trace)), "fsops/op")
		})
	}
}

// BenchmarkSupervisorOverheadParallel measures supervision cost under
// goroutine concurrency: a read-mostly per-worker mix (1 write per 16 ops,
// private file per worker) driven through b.RunParallel against the raw base
// and the RAE supervisor. Compare ns/op between the two sub-benchmarks; the
// delta is the fence + recording cost on the concurrent common case. Scale
// workers with -cpu to sweep contention levels.
func BenchmarkSupervisorOverheadParallel(b *testing.B) {
	for _, sysName := range []string{"base", "rae"} {
		b.Run(sysName, func(b *testing.B) {
			dev := blockdev.NewMem(experiments.ImageBlocks)
			if _, err := mkfs.Format(dev, mkfs.Options{}); err != nil {
				b.Fatal(err)
			}
			var fs fsapi.FS
			var cleanup func()
			switch sysName {
			case "base":
				base, err := basefs.Mount(dev, basefs.Options{})
				if err != nil {
					b.Fatal(err)
				}
				fs, cleanup = base, base.Kill
			case "rae":
				sup, err := core.Mount(dev, core.Config{NoTelemetry: true})
				if err != nil {
					b.Fatal(err)
				}
				fs, cleanup = sup, sup.Kill
			}
			var nextID atomic.Int64
			payload := make([]byte, 64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := nextID.Add(1)
				fd, err := fs.Create(fmt.Sprintf("/par%d", id), 0o644)
				if err != nil {
					b.Error(err)
					return
				}
				i := 0
				for pb.Next() {
					if i%16 == 0 {
						if _, err := fs.WriteAt(fd, int64(i%8)*64, payload); err != nil {
							b.Error(err)
							return
						}
					} else {
						if _, err := fs.ReadAt(fd, 0, len(payload)); err != nil {
							b.Error(err)
							return
						}
					}
					i++
				}
				if err := fs.Close(fd); err != nil {
					b.Error(err)
				}
			})
			b.StopTimer()
			cleanup()
		})
	}
}

// BenchmarkDifferentialThroughput is E7: how fast the §4.3 testing phase
// (base and shadow in lockstep with outcome comparison) can grind traces.
func BenchmarkDifferentialThroughput(b *testing.B) {
	trace := workload.Generate(workload.Config{
		Profile: workload.Soup, Seed: 3, NumOps: 1000,
	})
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := blockdev.NewMem(experiments.ImageBlocks)
		sb, _ := mkfs.Format(dev, mkfs.Options{})
		base, err := basefs.Mount(dev, basefs.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m := model.New(sb)
		b.StartTimer()
		disc, err := difftest.VerifyEquivalence(base, m, trace)
		if err != nil {
			b.Fatal(err)
		}
		if len(disc) != 0 {
			b.Fatalf("%d discrepancies in clean differential run", len(disc))
		}
		b.StopTimer()
		base.Kill()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(trace)), "fsops/op")
}

// BenchmarkFsck is E8's cost axis: full-image validation over a populated
// image (the shadow pays this once per recovery).
func BenchmarkFsck(b *testing.B) {
	dev := blockdev.NewMem(experiments.ImageBlocks)
	sb, _ := mkfs.Format(dev, mkfs.Options{})
	base, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.Generate(workload.Config{
		Profile: workload.Soup, Seed: 4, NumOps: 1500, Superblock: sb,
	})
	for _, rec := range trace {
		op := rec.Clone()
		op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		_ = oplog.Apply(base, op)
	}
	if err := base.Unmount(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := fsck.Check(dev)
		if !rep.Clean() {
			b.Fatal("populated image not clean")
		}
	}
}

// BenchmarkJournalCommit measures the WAL's commit path (substrate micro).
// Allocations per op must stay flat as payload size grows: the streaming
// CRC32C folds payload blocks into the commit checksum without
// concatenating them.
func BenchmarkJournalCommit(b *testing.B) {
	sb, _ := disklayout.Geometry(4096, 512, 256)
	dev := blockdev.NewMem(sb.NumBlocks)
	dev.WriteBlock(0, disklayout.EncodeSuperblock(sb))
	jsb := make([]byte, disklayout.BlockSize)
	journal.EncodeJSB(jsb, 1, 1)
	dev.WriteBlock(sb.JournalStart, jsb)
	j, err := journal.New(dev, sb)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, disklayout.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := &journal.Tx{}
		for k := uint32(0); k < 8; k++ {
			tx.Add(sb.DataStart+k, payload)
		}
		if err := j.Commit(tx); err != nil {
			b.Fatal(err)
		}
		if err := j.Checkpointed(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(8, "blocks/op")
}

// BenchmarkShadowReplay measures the shadow's constrained re-execution in
// isolation (the dominant recovery phase in E4).
func BenchmarkShadowReplay(b *testing.B) {
	sb, _ := disklayout.Geometry(experiments.ImageBlocks, 0, 0)
	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: 5, NumOps: 256, Superblock: sb,
	})
	var recorded []*oplog.Op
	for _, op := range trace {
		if op.Kind.Mutating() && op.Kind != oplog.KFsync && op.Kind != oplog.KSync {
			recorded = append(recorded, op)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := blockdev.NewMem(experiments.ImageBlocks)
		mkfs.Format(dev, mkfs.Options{})
		sh, err := shadowfs.New(dev, shadowfs.Options{SkipFsck: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := sh.Replay(shadowfs.ReplayInput{Ops: recorded, StopOnDiscrepancy: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Manifest == nil {
			b.Fatal("no handoff")
		}
	}
	b.ReportMetric(float64(len(recorded)), "replayedops/op")
}

// BenchmarkPanicContainment measures the supervisor's detection envelope on
// the fault path: one contained panic + full RAE recovery per iteration,
// with an empty log (the floor of E4).
func BenchmarkPanicContainment(b *testing.B) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(&faultinject.Specimen{
		ID: "bench", Class: faultinject.Crash, Deterministic: true,
		Op: "setperm", Point: "entry", PathSubstr: "detonate",
	})
	dev := blockdev.NewMem(4096)
	mkfs.Format(dev, mkfs.Options{})
	sup, err := core.Mount(dev, core.Config{Base: basefs.Options{Injector: reg}})
	if err != nil {
		b.Fatal(err)
	}
	defer sup.Kill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sup.SetPerm("/detonate", 0o600); err == nil {
			b.Fatal("detonation op found a file?")
		}
		// Keep the log empty so every iteration measures the same
		// empty-log recovery floor (the recovered in-flight op is recorded
		// and would otherwise accumulate across iterations).
		b.StopTimer()
		if err := sup.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	if sup.Stats().Recoveries != int64(b.N) {
		b.Fatalf("recoveries %d != N %d", sup.Stats().Recoveries, b.N)
	}
}
