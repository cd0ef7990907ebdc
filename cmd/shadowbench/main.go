// Command shadowbench regenerates the quantitative experiment series as
// printed tables: common-case throughput (E3), recovery latency vs recorded
// sequence length (E4), availability under a deterministic bug stream (E5),
// recording overhead (E6), the extent-layout series (E16), and the networked
// serving series (E17).
//
// Usage:
//
//	shadowbench [-series thput|recovery|avail|overhead|extent|server|all] [-ops N] [-seed S] [-json]
//
// With -json, each series additionally writes BENCH_<series>.json — a flat
// machine-readable metric map (op/s, latency percentiles, bytes/s) — so the
// perf trajectory can be tracked across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// benchMetrics collects the active series' machine-readable numbers when
// -json is set; record is a no-op otherwise.
var benchMetrics map[string]float64

func record(key string, v float64) {
	if benchMetrics != nil {
		benchMetrics[key] = v
	}
}

func main() {
	series := flag.String("series", "all", "which series: thput, recovery, avail, overhead, fsync, ablate, latency, io, concurrency, fsck, multitenant, extent, server, all")
	ops := flag.Int("ops", 4000, "operations per measurement")
	seed := flag.Int64("seed", 1, "seed")
	stats := flag.Bool("stats", true, "print a telemetry snapshot after each series")
	jsonOut := flag.Bool("json", false, "also write BENCH_<series>.json per series")
	window := flag.Int("window", 16, "server series: pipelined client in-flight window")
	batch := flag.Int("batch", 8, "server series: write-coalescing cap in ops (<=1 disables)")
	minSpeedup := flag.Float64("minspeedup", 0, "server series: fail unless E18 pipelined op/s >= this x the E17 baseline op/s (0 = no gate)")
	flag.Parse()
	run := func(name string, f func()) {
		if *series != "all" && *series != name {
			return
		}
		// Each series starts from a clean process-global sink so its snapshot
		// reflects only that series' activity.
		telemetry.Default().Reset()
		if *jsonOut {
			benchMetrics = map[string]float64{}
		}
		f()
		if *jsonOut {
			writeJSON(name, *ops, *seed)
			benchMetrics = nil
		}
		if *stats {
			printSnapshot(name)
		}
	}
	run("thput", func() { thput(*ops, *seed) })
	run("recovery", func() { recovery(*seed) })
	run("avail", func() { avail(*ops, *seed) })
	run("overhead", func() { overhead(*ops, *seed) })
	run("fsync", func() { fsyncHeavy(*seed) })
	run("ablate", func() { ablate(*ops, *seed) })
	run("latency", func() { latency(*ops, *seed) })
	run("io", func() { ioTraffic(*ops, *seed) })
	run("concurrency", func() { concurrency(*ops, *seed) })
	run("fsck", func() { fsckScale(*seed) })
	run("multitenant", func() { multiTenant(*ops, *seed) })
	run("extent", func() { extent(*seed) })
	run("server", func() { server(*ops, *seed, *window, *batch, *minSpeedup) })
}

// server prints the E17 series: a volmgr fleet served over TCP loopback via
// the fswire protocol, concurrent remote clients, and a recurring fault
// storm on vol0. The claims: recoveries stay behind the wire (zero client-
// visible fault-class errors), healthy tenants never recover, and the wire
// counters quantify serving cost.
func server(ops int, seed int64, window, batch int, minSpeedup float64) {
	const volumes, clients = 4, 8
	fmt.Println("== E17: networked serving — remote clients vs a fleet under a fault storm ==")
	fmt.Printf("(%d fswire clients over TCP loopback, %d volumes, %d ops/client, metaheavy; storm = recurring crash on vol0)\n",
		clients, volumes, ops)
	r, err := experiments.Server(volumes, clients, ops, seed)
	check(err)
	fmt.Printf("clients: %d ops in %v (%.0f op/s end-to-end), %d fault-class errors observed (must be 0)\n",
		r.TotalOps, r.Elapsed.Round(time.Millisecond), r.OpsPerSec, r.ClientFaults)
	fmt.Printf("storm volume: %d recoveries masked, %d app failures (must be 0)\n",
		r.StormRecoveries, r.StormAppFailures)
	fmt.Printf("healthy volumes: %d recoveries (must be 0)\n", r.HealthyRecoveries)
	fmt.Printf("wire: %d ops, %d bytes (%.1f MB/s), %d error replies\n",
		r.WireOps, r.WireBytes, r.WireBytesPerSec/1e6, r.WireErrs)
	record("server.ops_per_sec", r.OpsPerSec)
	record("server.total_ops", float64(r.TotalOps))
	record("server.client_faults", float64(r.ClientFaults))
	record("server.storm_recoveries", float64(r.StormRecoveries))
	record("server.storm_app_failures", float64(r.StormAppFailures))
	record("server.healthy_recoveries", float64(r.HealthyRecoveries))
	record("server.wire_ops", float64(r.WireOps))
	record("server.wire_bytes_per_sec", r.WireBytesPerSec)
	record("server.wire_errs", float64(r.WireErrs))
	fmt.Println()

	fmt.Println("== E18: wire-protocol pipelining — sequential vs pipelined clients ==")
	fmt.Printf("(window %d, batch cap %d ops; each fleet phase a fresh healthy fleet, then the storm, then the wire floor)\n", window, batch)
	p, err := experiments.ServerPipelined(volumes, clients, ops, seed, window, batch)
	check(err)
	fmt.Printf("healthy fleet:  sequential %.0f op/s (%v)   pipelined %.0f op/s (%v)   speedup %.2fx\n",
		p.BaselineOpsPerSec, p.BaselineElapsed.Round(time.Millisecond),
		p.PipelinedOpsPerSec, p.PipelinedElapsed.Round(time.Millisecond), p.Speedup)
	fmt.Printf("storm fleet:    %.0f op/s pipelined, %d recoveries masked, %d app failures, %d healthy recoveries\n",
		p.StormOpsPerSec, p.StormRecoveries, p.StormAppFailures, p.HealthyRecoveries)
	fmt.Printf("wire floor:     sequential %.0f op/s   pipelined %.0f op/s   speedup %.2fx (served in-memory model)\n",
		p.FloorSeqOpsPerSec, p.FloorPipeOpsPerSec, p.FloorSpeedup)
	fmt.Printf("fault-class errors across all phases: %d (must be 0)\n", p.ClientFaults)
	fmt.Printf("wire: %d ops, %d writes coalesced into batches, %d stream chunks\n",
		p.WireOps, p.BatchedWrites, p.StreamChunks)
	vsE17 := 0.0
	if r.OpsPerSec > 0 {
		vsE17 = p.PipelinedOpsPerSec / r.OpsPerSec
	}
	fmt.Printf("pipelined fleet vs E17 baseline (PR 9 driver, storm included): %.0f vs %.0f op/s = %.1fx\n",
		p.PipelinedOpsPerSec, r.OpsPerSec, vsE17)
	record("server.pipelined_ops_per_sec", p.PipelinedOpsPerSec)
	record("server.sequential_ops_per_sec", p.BaselineOpsPerSec)
	record("server.pipeline_speedup", p.Speedup)
	record("server.pipeline_vs_e17", vsE17)
	record("server.pipelined_storm_ops_per_sec", p.StormOpsPerSec)
	record("server.floor_sequential_ops_per_sec", p.FloorSeqOpsPerSec)
	record("server.floor_pipelined_ops_per_sec", p.FloorPipeOpsPerSec)
	record("server.floor_speedup", p.FloorSpeedup)
	record("server.pipelined_client_faults", float64(p.ClientFaults))
	record("server.pipelined_storm_recoveries", float64(p.StormRecoveries))
	record("server.batched_writes", float64(p.BatchedWrites))
	record("server.stream_chunks", float64(p.StreamChunks))
	record("server.pipeline_window", float64(p.Window))
	record("server.pipeline_batch", float64(p.Batch))
	if minSpeedup > 0 && vsE17 < minSpeedup {
		fmt.Fprintf(os.Stderr, "shadowbench: pipelined fleet %.1fx the E17 baseline, below required %.1fx\n", vsE17, minSpeedup)
		os.Exit(1)
	}
	fmt.Println()
}

// writeJSON dumps the recorded metric map as BENCH_<series>.json in the
// current directory.
func writeJSON(series string, ops int, seed int64) {
	doc := struct {
		Series  string             `json:"series"`
		Ops     int                `json:"ops"`
		Seed    int64              `json:"seed"`
		Metrics map[string]float64 `json:"metrics"`
	}{series, ops, seed, benchMetrics}
	b, err := json.MarshalIndent(doc, "", "  ")
	check(err)
	name := fmt.Sprintf("BENCH_%s.json", series)
	check(os.WriteFile(name, append(b, '\n'), 0o644))
	fmt.Printf("-- wrote %s (%d metrics) --\n\n", name, len(benchMetrics))
}

// extent prints the E16 series: large-file sequential throughput on the
// extent layout vs the legacy bmap under a fixed per-IO service time, and
// the scoped metadata check's device-IO cost as the image grows 16x.
func extent(seed int64) {
	const fileMB = 16
	fmt.Println("== E16: extent layout — vectored sequential IO and metadata locality ==")
	fmt.Printf("(one %d MiB sequential file; per-IO device service time %v)\n",
		fileMB, experiments.ExtentIOLatency)
	rows, err := experiments.ExtentSequential(fileMB, experiments.ExtentIOLatency, seed)
	check(err)
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "layout", "write MB/s", "wr calls", "read MB/s", "rd calls")
	byLayout := map[string]experiments.ExtentSeqResult{}
	for _, r := range rows {
		byLayout[r.Layout] = r
		fmt.Printf("%-8s %12.1f %12d %12.1f %12d\n",
			r.Layout, r.WriteMBps, r.WriteCalls, r.ReadMBps, r.ReadCalls)
		record("extent.seq."+r.Layout+".write_bytes_per_sec", r.WriteMBps*1e6)
		record("extent.seq."+r.Layout+".read_bytes_per_sec", r.ReadMBps*1e6)
		record("extent.seq."+r.Layout+".write_calls", float64(r.WriteCalls))
		record("extent.seq."+r.Layout+".read_calls", float64(r.ReadCalls))
	}
	wSpeed := byLayout["extent"].WriteMBps / byLayout["bmap"].WriteMBps
	rSpeed := byLayout["extent"].ReadMBps / byLayout["bmap"].ReadMBps
	record("extent.seq.write_speedup", wSpeed)
	record("extent.seq.read_speedup", rSpeed)
	fmt.Printf("speedup: write %.1fx, read %.1fx (target >= 4x)\n\n", wSpeed, rSpeed)

	sizes := []uint32{65536, 262144, 1048576}
	fmt.Println("-- scoped metadata check vs image size (live data fixed: 4 MiB + 8 small files) --")
	srows, err := experiments.ExtentMetadataScale(sizes, 4, seed)
	check(err)
	fmt.Printf("%-12s %12s %14s %14s\n", "image blks", "scope blks", "scoped reads", "elapsed")
	minR, maxR := srows[0].ScopedReads, srows[0].ScopedReads
	for _, r := range srows {
		fmt.Printf("%-12d %12d %14d %14v\n", r.ImageBlocks, r.ScopeBlocks, r.ScopedReads, r.ScopedTime)
		record(fmt.Sprintf("extent.meta.scoped_reads.%d", r.ImageBlocks), float64(r.ScopedReads))
		if r.ScopedReads < minR {
			minR = r.ScopedReads
		}
		if r.ScopedReads > maxR {
			maxR = r.ScopedReads
		}
	}
	flat := float64(maxR) / float64(minR)
	record("extent.meta.flatness", flat)
	fmt.Printf("flatness across %dx image growth: max/min reads = %.2fx (target <= 1.10x)\n\n",
		sizes[len(sizes)-1]/sizes[0], flat)
}

// multiTenant prints the E14 series: a fleet of volumes under one volume
// manager, with a deterministic fault storm hitting volume 0 while its
// neighbors keep serving. The isolation claim is the healthy tenants' p99
// delta; the quota table is the cache-enforcement evidence.
func multiTenant(ops int, seed int64) {
	const volumes = 8
	fmt.Println("== E14: multi-tenant isolation under a fault storm ==")
	fmt.Printf("(%d volumes x %d ops, metaheavy; storm = recurring crash + %v/IO device latency on vol0)\n",
		volumes, ops, 20*time.Microsecond)
	res, err := experiments.MultiTenant(volumes, ops, seed)
	check(err)

	fmt.Printf("%-22s %14s %14s %10s\n", "healthy tenants", "baseline", "storm", "delta")
	fmt.Printf("%-22s %14v %14v %9.1f%%\n", "p50 op latency",
		res.BaselineHealthyP50, res.StormHealthyP50,
		pctDelta(res.BaselineHealthyP50, res.StormHealthyP50))
	fmt.Printf("%-22s %14v %14v %9.1f%%\n", "p99 op latency",
		res.BaselineHealthyP99, res.StormHealthyP99, res.HealthyP99DeltaPct)
	fmt.Println()

	fmt.Printf("storm volume: %d recoveries, %d app failures, downtime %v\n",
		res.StormRecoveries, res.StormAppFailures, res.StormDowntime)
	fmt.Printf("storm volume throughput: %.0f op/s (baseline %.0f op/s)\n",
		res.StormOpsPerSec, res.BaselineStormOpsSec)
	fmt.Printf("healthy-volume recoveries: %d (must be 0)\n", res.HealthyRecoveries)
	fmt.Println()

	fmt.Printf("cache rebalancer: %d passes, %d blocks moved; final quotas (blocks):\n",
		res.RebalancePasses, res.RebalancedBlocks)
	names := make([]string, 0, len(res.QuotaGauges))
	for name := range res.QuotaGauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %6d\n", name, res.QuotaGauges[name])
	}
	fmt.Println()
}

// pctDelta is (b-a)/a as a percentage.
func pctDelta(a, b time.Duration) float64 {
	if a <= 0 {
		return 0
	}
	return (float64(b) - float64(a)) / float64(a) * 100
}

// fsckScale prints the E13 series: the parallel checker's worker scaling
// and the region-scoped check vs image size.
func fsckScale(seed int64) {
	fmt.Println("== E13: parallel, region-scoped fsck ==")
	fmt.Printf("(per-read device service time %v; image %d blocks)\n",
		experiments.FsckIOLatency, experiments.ImageBlocks)
	fmt.Println("(speedup combines worker parallelism with the parallel checker's")
	fmt.Println(" read-once block cache; the sequential baseline re-reads hot blocks)")
	rows, err := experiments.FsckParallelScale([]int{1, 2, 4, 8}, 3000, seed, experiments.FsckIOLatency)
	check(err)
	fmt.Printf("%-10s %14s %10s %12s %12s %10s\n", "workers", "elapsed", "speedup", "dev reads", "checks", "problems")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.Workers)
		if r.Workers == 0 {
			label = "seq"
		}
		fmt.Printf("%-10s %14v %9.2fx %12d %12d %10d\n", label, r.Elapsed, r.Speedup, r.DevReads, r.ChecksRun, r.Problems)
	}
	fmt.Println()

	fmt.Println("-- region-scoped check vs image size (same write gap; dev reads = IO cost) --")
	srows, err := experiments.ScopedFsckScale([]uint32{16384, 65536}, 16, 1500, seed, 8, 0)
	check(err)
	fmt.Printf("%-12s %10s %12s %12s %12s %14s %14s\n",
		"image blks", "scope", "full reads", "scoped reads", "read ratio", "full", "scoped")
	for _, r := range srows {
		fmt.Printf("%-12d %10d %12d %12d %11.1fx %14v %14v\n",
			r.ImageBlocks, r.GapBlocks, r.FullReads, r.ScopedReads, r.ReadRatio, r.FullTime, r.ScopedTime)
	}
	fmt.Println()
}

// concurrency prints the E11 sweep: aggregate throughput of the bare base vs
// the RAE supervisor as the number of concurrent application goroutines
// grows, on a read-mostly and an adversarial mixed (soup) profile.
func concurrency(ops int, seed int64) {
	fmt.Println("== E11: concurrency sweep (aggregate ops/sec, higher is better) ==")
	fmt.Printf("(host: GOMAXPROCS=%d — levels beyond it measure contention, not parallel speed-up)\n",
		runtime.GOMAXPROCS(0))
	profiles := []workload.Profile{workload.ReadMostly, workload.Soup}
	rows, err := experiments.ConcurrencySweep(profiles, ops, seed)
	check(err)
	type key struct {
		p workload.Profile
		g int
	}
	cells := map[experiments.System]map[key]float64{}
	for _, r := range rows {
		if cells[r.System] == nil {
			cells[r.System] = map[key]float64{}
		}
		cells[r.System][key{r.Profile, r.Goroutines}] = r.OpsPerSec
	}
	fmt.Printf("%-12s %6s %14s %14s %10s\n", "workload", "gor.", "base op/s", "rae op/s", "rae/base")
	for _, p := range profiles {
		for _, g := range experiments.ConcurrencySweepLevels {
			b := cells[experiments.SysBase][key{p, g}]
			r := cells[experiments.SysRAE][key{p, g}]
			fmt.Printf("%-12s %6d %14.0f %14.0f %9.1f%%\n", p, g, b, r, r/b*100)
		}
	}
	fmt.Println()
}

// printSnapshot dumps the process-global telemetry accumulated by one series.
func printSnapshot(name string) {
	fmt.Printf("-- telemetry snapshot after series %q --\n", name)
	check(telemetry.Default().Snapshot().WriteText(os.Stdout))
	fmt.Println()
}

func ioTraffic(ops int, seed int64) {
	fmt.Println("== IO accounting: device traffic per implementation, same trace ==")
	fmt.Printf("%-12s %-8s %12s %12s %10s\n", "workload", "system", "dev reads", "dev writes", "flushes")
	for _, p := range workload.Profiles() {
		rows, err := experiments.IOAccounting(p, ops, seed)
		check(err)
		for _, r := range rows {
			fmt.Printf("%-12s %-8s %12d %12d %10d\n",
				r.Profile, r.System, r.DeviceReads, r.DeviceWrites, r.Flushes)
		}
	}
	fmt.Println()
}

func latency(ops int, seed int64) {
	fmt.Println("== E4b: per-operation latency under RAE (recoveries live in the tail) ==")
	fmt.Printf("%-10s %8s %12s %12s %12s %12s %12s\n",
		"bug rate", "recov.", "p50", "p95", "p99", "max", "mean")
	for _, rate := range []float64{0, 0.001, 0.005, 0.02} {
		r, err := experiments.Latency(rate, ops, seed)
		check(err)
		fmt.Printf("%-10.3f %8d %12v %12v %12v %12v %12v\n",
			r.BugRate, r.Recoveries, r.P50, r.P95, r.P99, r.Max, r.Mean)
		record(fmt.Sprintf("latency.rate%.3f.p50_ns", rate), float64(r.P50))
		record(fmt.Sprintf("latency.rate%.3f.p99_ns", rate), float64(r.P99))
	}
	fmt.Println()
}

func ablate(ops int, seed int64) {
	fmt.Println("== Ablation: what each base-FS performance component buys ==")
	fmt.Println("(the shadow omits all of them; 'all-weakened' approximates its posture)")
	for _, p := range []workload.Profile{workload.ReadMostly, workload.MetaHeavy} {
		rows, err := experiments.Ablate(p, ops, seed)
		check(err)
		fmt.Printf("%-22s %14s %12s   [%s]\n", "configuration", "ops/sec", "slowdown", p)
		for _, r := range rows {
			fmt.Printf("%-22s %14.0f %11.1f%%\n", r.Name, r.OpsPerSec, r.SlowdownPct)
		}
		fmt.Println()
	}
}

func thput(ops int, seed int64) {
	fmt.Println("== E3: common-case throughput (ops/sec, higher is better) ==")
	fmt.Printf("%-12s %12s %12s %12s %12s %14s\n",
		"workload", "base", "shadow", "rae", "nvp3", "base/shadow")
	for _, p := range workload.Profiles() {
		row := map[experiments.System]float64{}
		for _, sys := range []experiments.System{
			experiments.SysBase, experiments.SysShadow, experiments.SysRAE, experiments.SysNVP3,
		} {
			r, err := experiments.Throughput(sys, p, ops, seed)
			check(err)
			row[sys] = r.OpsPerSec
			record(fmt.Sprintf("thput.%s.%s.ops_per_sec", p, sys), r.OpsPerSec)
		}
		fmt.Printf("%-12s %12.0f %12.0f %12.0f %12.0f %13.1fx\n",
			p, row[experiments.SysBase], row[experiments.SysShadow],
			row[experiments.SysRAE], row[experiments.SysNVP3],
			row[experiments.SysBase]/row[experiments.SysShadow])
	}
	fmt.Println()
}

func recovery(seed int64) {
	fmt.Println("== E4: recovery latency vs recorded-sequence length ==")
	fmt.Printf("%-10s %12s %12s %12s %12s %12s %12s %12s\n",
		"log ops", "plan", "reboot", "fsck", "shadow mount", "replay", "hand-off", "total")
	var traces []telemetry.TraceSnapshot
	for _, n := range []int{8, 32, 128, 512, 2048} {
		r, err := experiments.RecoveryLatency(n, seed)
		check(err)
		ph := r.Phases
		fmt.Printf("%-10d %12v %12v %12v %12v %12v %12v %12v\n",
			r.LogLen, ph.Plan, ph.Reboot, ph.Fsck, ph.ShadowMount, ph.Replay, ph.Absorb, ph.Total())
		traces = append(traces, r.Trace)
	}
	fmt.Println()
	fmt.Println("-- six-phase recovery traces (telemetry) --")
	for _, tr := range traces {
		fmt.Println(tr)
	}
	fmt.Println()

	fmt.Println("== E12: recovery with RecoveryWorkers 1 vs the default ==")
	fmt.Printf("(per-IO device service time %v armed at detonation)\n", experiments.RecoveryIOLatency)
	fmt.Printf("%-10s %14s %14s %10s\n", "gap ops", "workers 1", "default", "speedup")
	for _, n := range []int{512, 2048, 10000} {
		r, err := experiments.RecoveryPipeline(n, seed, experiments.RecoveryIOLatency)
		check(err)
		fmt.Printf("%-10d %14v %14v %9.2fx\n",
			r.LogLen, r.Sequential.Total(), r.Pipelined.Total(), r.Speedup)
	}
	fmt.Println()
	w, err := experiments.WarmRepeat(2000, 100, seed, experiments.RecoveryIOLatency)
	check(err)
	fmt.Printf("warm repeat fault: first gap %d ops -> replayed %d in %v;\n",
		w.Gap1, w.FirstReplayed, w.FirstWall)
	fmt.Printf("  second fault %d ops later -> replayed %d, reused %d, in %v (fsck skipped)\n",
		w.Gap2, w.SecondReplayed, w.Reused, w.SecondWall)
	fmt.Println()
}

func avail(ops int, seed int64) {
	fmt.Println("== E5: availability under a recurring deterministic crash bug ==")
	fmt.Printf("%-14s %10s %10s %10s %10s %8s %12s\n",
		"mode", "correct", "failures", "recov.", "degraded", "fdsLost", "downtime")
	for _, mode := range []core.Mode{core.ModeRAE, core.ModeCrashRestart, core.ModeNaiveReplay} {
		r, err := experiments.Availability(mode, ops, seed)
		check(err)
		fmt.Printf("%-14s %6d/%-4d %10d %10d %10d %8d %12v\n",
			r.Mode, r.Completed, r.Ops, r.AppFailures, r.Recoveries,
			r.Degradations, r.FDsLost, r.Downtime)
	}
	fmt.Println()
}

func overhead(ops int, seed int64) {
	fmt.Println("== E6: RAE recording overhead in the common case (no bugs) ==")
	fmt.Printf("%-12s %14s %14s %10s\n", "workload", "base op/s", "rae op/s", "overhead")
	for _, p := range workload.Profiles() {
		r, err := experiments.RecordingOverhead(p, ops, seed)
		check(err)
		fmt.Printf("%-12s %14.0f %14.0f %9.1f%%\n", r.Profile, r.BaseOpsSec, r.RAEOpsSec, r.OverheadPct)
		record(fmt.Sprintf("overhead.%s.base_ops_per_sec", p), r.BaseOpsSec)
		record(fmt.Sprintf("overhead.%s.rae_ops_per_sec", p), r.RAEOpsSec)
	}
	fmt.Println()
}

func fsyncHeavy(seed int64) {
	fmt.Println("== E10: durability path under fsync-heavy load ==")
	r, err := experiments.FsyncHeavy(200, 8, 40, 50*time.Microsecond, seed)
	check(err)
	fmt.Printf("sequential: %d syncs, %d device flushes (%.2f flushes/sync)\n",
		r.Syncs, r.Flushes, r.FlushesPerSync)
	fmt.Printf("concurrent: %d workers, %d fsyncs, %.0f fsync/s, %d device flushes\n",
		r.Workers, r.Fsyncs, r.FsyncsPerSec, r.ConcFlushes)
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "shadowbench: %v\n", err)
		os.Exit(1)
	}
}
