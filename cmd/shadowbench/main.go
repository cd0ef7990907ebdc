// Command shadowbench regenerates the paper-claim experiment series as
// printed tables: common-case throughput (E3), recovery latency vs recorded
// sequence length (E4), availability under a deterministic bug stream (E5),
// recording overhead (E6), the component ablation (§3.3), per-operation
// latency under bugs (E4b), and per-implementation device traffic.
// Performance of the layers this repository adds is measured by benchmark/.
//
// Usage:
//
//	shadowbench [-series thput|recovery|avail|overhead|ablate|latency|io|all] [-ops N] [-seed S] [-stats=false]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	series := flag.String("series", "all", "which series: thput, recovery, avail, overhead, ablate, latency, io, all")
	ops := flag.Int("ops", 4000, "operations per measurement")
	seed := flag.Int64("seed", 1, "seed")
	stats := flag.Bool("stats", true, "print a telemetry snapshot after each series")
	flag.Parse()
	all := []struct {
		name string
		run  func()
	}{
		{"thput", func() { thput(*ops, *seed) }},
		{"recovery", func() { recovery(*seed) }},
		{"avail", func() { avail(*ops, *seed) }},
		{"overhead", func() { overhead(*ops, *seed) }},
		{"ablate", func() { ablate(*ops, *seed) }},
		{"latency", func() { latency(*ops, *seed) }},
		{"io", func() { ioTraffic(*ops, *seed) }},
	}
	ran := false
	for _, sr := range all {
		if *series != "all" && *series != sr.name {
			continue
		}
		ran = true
		// Each series starts from a clean process-global sink so its snapshot
		// reflects only that series' activity.
		telemetry.Default().Reset()
		sr.run()
		if *stats {
			printSnapshot(sr.name)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "shadowbench: unknown series %q\n", *series)
		os.Exit(2)
	}
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
	}
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "shadowbench: %v\n", err)
		os.Exit(1)
	}
}
