// Package repro's root bench suite regenerates the paper-claim experiments
// as testing.B benchmarks, one per experiment in EXPERIMENTS.md:
//
//	BenchmarkTable1Classify          E1  Table 1 classification
//	BenchmarkFigure1Tally            E2  Figure 1 bugs per year
//	BenchmarkBaseVsShadowThroughput  E3  Figure 2's base ≫ shadow contrast
//	BenchmarkRecoveryLatency         E4  recovery cost vs recorded-log length
//	BenchmarkAvailabilityUnderBugs   E5  RAE vs baselines under bug arrivals
//	BenchmarkRecordingOverhead       E6  common-case supervision cost
//	BenchmarkTelemetryOverhead       E6  the same loop with telemetry off and on
//	BenchmarkDifferentialThroughput  E7  §4.3 testing-phase throughput
//
// Per-layer costs (journal commit, shadow replay, fsck, recovery, concurrent
// supervision) are rows of the regression benchmark in benchmark/.
//
// Run: go test -run '^$' -bench . -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/bugstudy"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/experiments"
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
