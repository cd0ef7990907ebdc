// Command fsstats inspects telemetry snapshots from the observability
// subsystem (internal/telemetry): it renders saved JSON snapshots as
// human-readable text, and can generate a live snapshot by running a
// supervised demo workload — optionally serving it over HTTP in the
// expvar style.
//
// Usage:
//
//	fsstats -file snapshot.json           render a saved snapshot as text
//	fsstats -file snapshot.json -json     re-emit the snapshot as JSON
//	fsstats -merge a.json b.json ...      merge snapshots into one fleet rollup
//	fsstats -demo [-ops N] [-seed S]      run a workload, print its snapshot
//	                                      and its last recovery's stage table
//	fsstats -demo -listen :8080           ...and serve /stats until interrupted
//
// -merge is the fleet path: N per-volume snapshots (one per tenant, as the
// volume manager exports them) combine into a single rollup — counters sum,
// histograms merge bucket-exactly so fleet quantiles are real, events
// interleave in time order.
package main

import (
	"flag"
	"fmt"
	"net/http"
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
	file := flag.String("file", "", "snapshot JSON file to render ('-' for stdin)")
	merge := flag.Bool("merge", false, "merge the snapshot files given as arguments into one rollup")
	demo := flag.Bool("demo", false, "run a supervised demo workload and snapshot it")
	asJSON := flag.Bool("json", false, "emit JSON instead of text")
	listen := flag.String("listen", "", "with -demo: serve the sink at this address under /stats")
	ops := flag.Int("ops", 2000, "with -demo: workload length")
	seed := flag.Int64("seed", 1, "with -demo: workload and bug seed")
	flag.Parse()

	switch {
	case *merge:
		mergeFiles(flag.Args(), *asJSON)
	case *file != "":
		renderFile(*file, *asJSON)
	case *demo:
		runDemo(*ops, *seed, *asJSON, *listen)
	default:
		fmt.Fprintln(os.Stderr, "fsstats: need -file, -merge, or -demo (see -h)")
		os.Exit(2)
	}
}

// mergeFiles rolls N saved snapshots up into one and prints it.
func mergeFiles(paths []string, asJSON bool) {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "fsstats: -merge needs snapshot files as arguments")
		os.Exit(2)
	}
	snaps := make([]telemetry.Snapshot, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		check(err)
		snap, err := telemetry.ReadSnapshot(f)
		f.Close()
		if err != nil {
			check(fmt.Errorf("%s: %w", path, err))
		}
		snaps = append(snaps, snap)
	}
	merged := telemetry.Merge(snaps...)
	fmt.Fprintf(os.Stderr, "fsstats: merged %d snapshots\n", len(snaps))
	if asJSON {
		check(merged.WriteJSON(os.Stdout))
		return
	}
	check(merged.WriteText(os.Stdout))
}

// renderFile loads a snapshot produced by Snapshot.WriteJSON and prints it.
func renderFile(path string, asJSON bool) {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		check(err)
		defer f.Close()
		in = f
	}
	snap, err := telemetry.ReadSnapshot(in)
	check(err)
	if asJSON {
		check(snap.WriteJSON(os.Stdout))
		return
	}
	check(snap.WriteText(os.Stdout))
}

// runDemo exercises every layer of a supervised filesystem — including one
// masked crash recovery — against an isolated sink, then prints or serves
// the resulting snapshot.
func runDemo(numOps int, seed int64, asJSON bool, listen string) {
	dev := blockdev.NewMem(16384)
	sb, err := mkfs.Format(dev, mkfs.Options{})
	check(err)

	reg := faultinject.NewRegistry(seed)
	reg.Arm(&faultinject.Specimen{
		ID: "fsstats-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "box",
	})

	sink := telemetry.New()
	sup, err := core.Mount(dev, core.Config{
		Base:      basefs.Options{Injector: reg},
		Telemetry: sink,
	})
	check(err)

	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: seed, NumOps: numOps,
		Superblock: sb, SyncEvery: 100,
	})
	for _, rec := range trace {
		op := rec.Clone()
		op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		_ = oplog.Apply(sup, op)
	}
	check(sup.Unmount())

	if listen != "" {
		mux := http.NewServeMux()
		mux.Handle("/stats", sink.Handler())
		fmt.Fprintf(os.Stderr, "fsstats: serving snapshot on http://%s/stats (?format=text)\n", listen)
		check(http.ListenAndServe(listen, mux))
		return
	}
	if asJSON {
		check(sink.Snapshot().WriteJSON(os.Stdout))
		return
	}
	check(sink.Snapshot().WriteText(os.Stdout))
	if tr, ok := sink.LastRecoveryTrace(); ok {
		fmt.Println()
		telemetry.WriteTraceTable(os.Stdout, tr)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsstats: %v\n", err)
		os.Exit(1)
	}
}
