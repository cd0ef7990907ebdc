// Command fsserve exposes supervised filesystems over the network: a volmgr
// fleet served via the fswire protocol (internal/fswire). Remote clients
// attach to a volume by name ("vol0".."volN-1") and get the full fsapi.FS
// operation set — with the RAE supervisor underneath, so a runtime error on
// the server is recovered behind the wire and the client only sees the
// operation take longer.
//
// Usage:
//
//	fsserve -listen :5640 -volumes 4     serve a 4-volume fleet until interrupted
//	fsserve -smoke                       self-contained loopback check (CI):
//	                                     8 concurrent remote clients over a
//	                                     4-volume fleet, a deterministic fault
//	                                     storm on vol0, and the invariants that
//	                                     no client observes a fault-class error
//	                                     and no healthy tenant recovers.
//
// In smoke mode the exit status is non-zero if any invariant fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/fserr"
	"repro/internal/fswire"
	"repro/internal/mkfs"
	"repro/internal/oplog"
	"repro/internal/volmgr"
	"repro/internal/workload"
)

func main() {
	listen := flag.String("listen", ":5640", "address to serve the fswire protocol on")
	volumes := flag.Int("volumes", 4, "number of tenant volumes")
	ops := flag.Int("ops", 400, "smoke mode: operations per client")
	clients := flag.Int("clients", 8, "smoke mode: concurrent remote clients")
	seed := flag.Int64("seed", 1, "workload and fault seed")
	window := flag.Int("window", 16, "smoke mode: per-connection in-flight window (1 = sequential RPCs)")
	batch := flag.Int("batch", 8, "smoke mode: write-coalescing cap in ops (0 or 1 disables)")
	smoke := flag.Bool("smoke", false, "run the self-contained loopback smoke check and exit")
	flag.Parse()

	if *window < 1 {
		fmt.Fprintln(os.Stderr, "fsserve: -window must be >= 1")
		os.Exit(2)
	}

	if *volumes < 1 {
		fmt.Fprintln(os.Stderr, "fsserve: need at least one volume")
		os.Exit(2)
	}

	m, err := volmgr.New(volmgr.Config{
		PoolBlocks:        uint32(*volumes) * volmgr.ServingVolumeBlocks,
		CacheBudgetBlocks: 96 * *volumes,
		CacheMinPerVolume: 32,
	})
	check(err)
	defer m.Shutdown()

	vols := make([]*volmgr.Volume, *volumes)
	for i := range vols {
		vc := volmgr.VolumeConfig{Blocks: volmgr.ServingVolumeBlocks}
		if *smoke && i == 0 {
			// The storm: a recurring deterministic crash on every mkdir of a
			// "box" directory — the metaheavy profile creates them steadily,
			// so vol0 recovers over and over while its neighbors serve on.
			reg := faultinject.NewRegistry(*seed)
			reg.Arm(&faultinject.Specimen{
				ID: "fsserve-storm", Class: faultinject.Crash,
				Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "box",
			})
			vc.Core.Base.Injector = reg
		}
		vols[i], err = m.Create(fmt.Sprintf("vol%d", i), vc)
		check(err)
	}

	srv := fswire.NewServer(fswire.Volumes(m), fswire.WithTelemetry(m.Telemetry()))
	addr := *listen
	if *smoke {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	check(err)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	if !*smoke {
		fmt.Fprintf(os.Stderr, "fsserve: serving %d volumes on %s (attach: vol0..vol%d)\n",
			*volumes, ln.Addr(), *volumes-1)
		check(<-done)
		return
	}

	bad := runSmoke(m, vols, ln.Addr().String(), *clients, *ops, *seed, *window, *batch)
	check(srv.Close())
	<-done
	check(m.Shutdown())
	if bad {
		os.Exit(1)
	}
}

// runSmoke drives the fleet from concurrent remote clients and checks the
// serving-layer invariants hold across the wire. Returns true on violation.
// window > 1 drives the clients through the pipelined path (async submission,
// write coalescing); window == 1 keeps the sequential one-RPC-per-op driver.
func runSmoke(m *volmgr.Manager, vols []*volmgr.Volume, addr string, clients, ops int, seed int64, window, batch int) bool {
	// The geometry is deterministic for a given device size, so one throwaway
	// format yields the superblock every client's workload generator needs.
	sb, err := mkfs.Format(blockdev.NewMem(volmgr.ServingVolumeBlocks), mkfs.Options{})
	check(err)

	type clientResult struct {
		stats  workload.DriveStats
		faults int
		err    error
	}
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			volume := fmt.Sprintf("vol%d", ci%len(vols))
			var c *fswire.Client
			var err error
			if window > 1 {
				c, err = fswire.DialConfig(addr, volume, fswire.ClientConfig{
					Window: window, BatchMaxOps: batch,
				})
			} else {
				c, err = fswire.Dial(addr, volume)
			}
			if err != nil {
				results[ci].err = fmt.Errorf("dial %s: %w", volume, err)
				return
			}
			defer c.Hangup()
			// Distinct seeds keep the clients from being clones; clients
			// sharing a volume collide on paths at worst, which produces
			// benign errnos (EEXIST, ENOENT), never fault-class ones.
			trace := workload.Generate(workload.Config{
				Profile: workload.MetaHeavy, Seed: seed + int64(ci)*101,
				NumOps: ops, Superblock: sb, SyncEvery: 100,
			})
			// A fault-class errno at the client is a recovery that leaked
			// through the wire — exactly what must not happen.
			countFault := func(got *oplog.Op) {
				if opErr := fserr.FromErrno(got.Errno); got.Errno != 0 && fserr.IsFault(opErr) {
					results[ci].faults++
				}
			}
			if window > 1 {
				results[ci].stats = workload.DrivePipelined(c, trace, func(_, got *oplog.Op) {
					countFault(got)
				})
			} else {
				results[ci].stats = workload.DriveObserved(c, trace, func(_, got *oplog.Op, _ time.Duration) {
					countFault(got)
				})
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	bad := false
	totalOps := 0
	for ci := range results {
		r := results[ci]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "fsserve: client %d failed: %v\n", ci, r.err)
			bad = true
			continue
		}
		totalOps += r.stats.Applied
		if r.faults > 0 {
			fmt.Fprintf(os.Stderr, "fsserve: client %d observed %d fault-class errors over the wire\n",
				ci, r.faults)
			bad = true
		}
	}
	for i, v := range vols {
		st := v.Stats()
		fmt.Printf("  %-8s recoveries=%d panics=%d appFailures=%d\n",
			v.Name(), st.Recoveries, st.PanicsCaught, st.AppFailures)
		if st.AppFailures > 0 {
			fmt.Fprintf(os.Stderr, "fsserve: %s surfaced %d app failures\n", v.Name(), st.AppFailures)
			bad = true
		}
		if i == 0 {
			if st.Recoveries == 0 {
				fmt.Fprintln(os.Stderr, "fsserve: storm volume never recovered — storm did not fire")
				bad = true
			}
		} else if st.Recoveries > 0 {
			fmt.Fprintf(os.Stderr, "fsserve: healthy volume %s recovered %d times — isolation breach\n",
				v.Name(), st.Recoveries)
			bad = true
		}
	}
	snap := m.Telemetry().Snapshot()
	fmt.Printf("fsserve smoke: %d clients x %d ops (window=%d batch=%d) in %v (%.0f op/s), wire ops=%d bytes=%d errs=%d batched=%d\n",
		len(results), totalOps/max(1, len(results)), window, batch, elapsed.Round(time.Millisecond),
		float64(totalOps)/elapsed.Seconds(),
		snap.Counters["fswire.ops"], snap.Counters["fswire.bytes"], snap.Counters["fswire.errs"],
		snap.Counters["fswire.batch.writes"])
	if !bad {
		fmt.Println("fsserve smoke: OK — recoveries masked, tenants isolated, zero app-visible failures")
	}
	return bad
}

func check(err error) {
	if err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintf(os.Stderr, "fsserve: %v\n", err)
		os.Exit(1)
	}
}
