// Command raedemo is a narrated end-to-end demonstration of Robust
// Alternative Execution: it mounts a supervised filesystem with a
// deterministic kernel-crash-style bug planted in the base, runs an
// application workload across the bug, and reports how the shadow masked
// every firing.
//
// Usage:
//
//	raedemo [-mode rae|crash-restart|naive-replay] [-ops 500] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mkfs"
	"repro/internal/oplog"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	modeFlag := flag.String("mode", "rae", "failure handling: rae, crash-restart, naive-replay")
	ops := flag.Int("ops", 500, "workload length")
	seed := flag.Int64("seed", 1, "workload and bug seed")
	flag.Parse()

	var mode core.Mode
	switch *modeFlag {
	case "rae":
		mode = core.ModeRAE
	case "crash-restart":
		mode = core.ModeCrashRestart
	case "naive-replay":
		mode = core.ModeNaiveReplay
	default:
		fmt.Fprintf(os.Stderr, "raedemo: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	dev := blockdev.NewMem(16384)
	sb, err := mkfs.Format(dev, mkfs.Options{})
	check(err)
	fmt.Printf("formatted 64 MiB image: %d inodes, %d-block journal\n", sb.NumInodes, sb.JournalLen)

	reg := faultinject.NewRegistry(*seed)
	reg.Arm(&faultinject.Specimen{
		ID:            "demo-null-deref",
		Class:         faultinject.Crash,
		Deterministic: true,
		Op:            "mkdir",
		Point:         "entry",
		PathSubstr:    "box",
	})
	fmt.Println(`planted bug "demo-null-deref": deterministic kernel panic in mkdir of any *box* path`)

	sink := telemetry.New()
	sup, err := core.Mount(dev, core.Config{Mode: mode, Base: basefs.Options{Injector: reg}, Telemetry: sink})
	check(err)
	fmt.Printf("mounted under %s supervision\n\n", mode)

	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: *seed, NumOps: *ops, Superblock: sb, SyncEvery: 100,
	})
	correct := 0
	for _, rec := range trace {
		op := rec.Clone()
		op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		_ = oplog.Apply(sup, op)
		if op.Errno == rec.Errno && op.RetFD == rec.RetFD && op.RetIno == rec.RetIno && op.RetN == rec.RetN {
			correct++
		}
	}
	st := sup.Stats()
	fired := len(reg.Fired())
	fmt.Printf("workload: %d operations (metaheavy profile)\n", len(trace))
	fmt.Printf("bug fired %d times in the base filesystem\n", fired)
	fmt.Printf("operations with specification-correct outcomes: %d/%d\n", correct, len(trace))
	fmt.Printf("application-visible failures: %d\n", st.AppFailures)
	fmt.Printf("recoveries: %d (degraded: %d), panics contained: %d\n",
		st.Recoveries, st.Degradations, st.PanicsCaught)
	fmt.Printf("operations re-executed by the shadow: %d\n", st.OpsReplayed)
	fmt.Printf("operation log peak length: %d ops\n", st.PeakLogLen)
	fmt.Printf("descriptors invalidated: %d\n", st.FDsInvalidated)
	fmt.Printf("total recovery downtime: %v\n", st.TotalDowntime)
	if traces := sink.RecoveryTraces(); len(traces) > 0 {
		fmt.Printf("\nper-phase recovery traces (%d masked firing(s)):\n", len(traces))
		for _, tr := range traces {
			fmt.Println()
			telemetry.WriteTraceTable(os.Stdout, tr)
		}
	}
	snap := sink.Snapshot()
	printedHeader := false
	for _, stage := range []string{"plan", "reboot", "fsck", "shadow_mount", "replay",
		"install", "install_wait", "resume", "wall"} {
		h, ok := snap.Histograms["recovery.stage."+stage+"_ns"]
		if !ok || h.Count == 0 {
			continue
		}
		if !printedHeader {
			fmt.Println("\nrecovery engine stages (wall = plan + reboot + install + install_wait + resume;")
			fmt.Println("fsck, shadow_mount and replay run beside reboot, install_wait is what they add to it):")
			printedHeader = true
		}
		fmt.Printf("  %-12s n=%-3d mean=%-12v max=%v\n", stage, h.Count, h.Mean, h.Max)
	}
	if reused := snap.Counters["recovery.replay.reused_ops"]; reused > 0 {
		fmt.Printf("warm replayer reuse: %d already-replayed ops skipped across repeat faults\n", reused)
	}
	if evs := sink.Events(); len(evs) > 0 {
		fmt.Println("\nevent journal (last 10):")
		if len(evs) > 10 {
			evs = evs[len(evs)-10:]
		}
		for _, ev := range evs {
			fmt.Println(" ", ev)
		}
	}
	if d := sup.LastDiscrepancies(); len(d) > 0 {
		fmt.Printf("constrained-replay discrepancies (bugs in base or shadow!): %d\n", len(d))
		for _, x := range d {
			fmt.Println(" ", x)
		}
	}
	check(sup.Unmount())
	fmt.Println("\nunmounted cleanly; on-disk image is consistent")
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "raedemo: %v\n", err)
		os.Exit(1)
	}
}
