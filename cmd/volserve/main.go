// Command volserve is the minimal multi-volume driver for the serving layer
// (internal/volmgr): one supervisor process hosting N isolated tenants. It
// creates a fleet of volumes under a single manager — shared device pool,
// shared cache budget with the miss-driven rebalancer, shared scrub workers,
// per-tenant QoS — runs a steady metaheavy workload on every volume, and
// optionally arms a deterministic fault storm (recurring crash specimen plus
// per-IO device latency) against vol0 to demonstrate isolation: the storm
// tenant recovers over and over while its neighbors never notice.
//
// Usage:
//
//	volserve -volumes 8 -ops 2000            run the fleet, print the rollup
//	volserve -volumes 2 -ops 500 -storm      CI smoke: one tenant under storm
//	volserve -listen :5640                   ...and serve the fleet over fswire
//	                                         (attach by volume name: vol0, vol1, ...)
//	volserve -http :8080                     ...and serve the /fleet rollup over HTTP
//	volserve -rate 500 -burst 64             per-tenant QoS (ops/sec token bucket)
//
// Exit status is non-zero if any healthy volume recorded a recovery or the
// storm volume surfaced an application failure — the two invariants the
// serving layer exists to hold.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/fswire"
	"repro/internal/mkfs"
	"repro/internal/volmgr"
	"repro/internal/workload"
)

func main() {
	volumes := flag.Int("volumes", 8, "number of tenant volumes")
	ops := flag.Int("ops", 2000, "operations per volume")
	seed := flag.Int64("seed", 1, "workload and fault seed")
	storm := flag.Bool("storm", false, "arm a deterministic fault storm on vol0")
	rate := flag.Float64("rate", 0, "per-tenant QoS rate in ops/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-tenant QoS burst (0 = rate-derived default)")
	cache := flag.Int("cache", 0, "shared clean-cache budget in blocks (0 = 96/volume)")
	listen := flag.String("listen", "", "serve the fleet over the fswire protocol at this address")
	httpAddr := flag.String("http", "", "serve the fleet rollup at this address under /fleet")
	asJSON := flag.Bool("json", false, "emit the final rollup as JSON")
	flag.Parse()

	if *volumes < 1 {
		fmt.Fprintln(os.Stderr, "volserve: need at least one volume")
		os.Exit(2)
	}
	budget := *cache
	if budget == 0 {
		budget = 96 * *volumes
	}
	cfg := volmgr.Config{
		PoolBlocks:        uint32(*volumes) * volmgr.ServingVolumeBlocks,
		CacheBudgetBlocks: budget,
		CacheMinPerVolume: 32,
		RebalanceInterval: 25 * time.Millisecond,
		ScrubInterval:     200 * time.Millisecond,
		ScrubWorkers:      2,
	}
	if *rate > 0 {
		cfg.DefaultQoS = volmgr.QoSConfig{
			OpsPerSec: *rate, Burst: *burst,
			MaxWait: 50 * time.Millisecond, MaxQueueDepth: 256,
		}
	}
	m, err := volmgr.New(cfg)
	check(err)
	defer m.Shutdown()

	vols := make([]*volmgr.Volume, *volumes)
	for i := range vols {
		vc := volmgr.VolumeConfig{Blocks: volmgr.ServingVolumeBlocks}
		if *storm && i == 0 {
			reg := faultinject.NewRegistry(*seed)
			reg.Arm(&faultinject.Specimen{
				ID: "volserve-storm", Class: faultinject.Crash,
				Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "box",
			})
			vc.Core.Base.Injector = reg
		}
		v, err := m.Create(fmt.Sprintf("vol%d", i), vc)
		check(err)
		if *storm && i == 0 {
			plan := blockdev.NewFaultPlan(*seed)
			plan.ReadLatency = 20 * time.Microsecond
			plan.WriteLatency = 20 * time.Microsecond
			v.Device().SetFaults(plan)
		}
		vols[i] = v
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		check(err)
		srv := fswire.NewServer(fswire.Volumes(m), fswire.WithTelemetry(m.Telemetry()))
		go func() {
			fmt.Fprintf(os.Stderr, "volserve: serving fswire on %s (attach: vol0..vol%d)\n",
				ln.Addr(), *volumes-1)
			check(srv.Serve(ln))
		}()
	}
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
			snap := m.FleetSnapshot()
			if r.URL.Query().Get("format") == "json" {
				w.Header().Set("Content-Type", "application/json")
				_ = snap.WriteJSON(w)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = snap.WriteText(w)
		})
		go func() {
			fmt.Fprintf(os.Stderr, "volserve: serving fleet rollup on http://%s/fleet (?format=json)\n", *httpAddr)
			check(http.ListenAndServe(*httpAddr, mux))
		}()
	}

	// The geometry is deterministic for a given device size, so one throwaway
	// format yields the superblock every tenant's workload generator needs.
	sb, err := mkfs.Format(blockdev.NewMem(volmgr.ServingVolumeBlocks), mkfs.Options{})
	check(err)

	start := time.Now()
	var wg sync.WaitGroup
	for i, v := range vols {
		wg.Add(1)
		go func(i int, v *volmgr.Volume) {
			defer wg.Done()
			trace := workload.Generate(workload.Config{
				Profile: workload.MetaHeavy, Seed: *seed + int64(i)*101,
				NumOps: *ops, Superblock: sb, SyncEvery: 100,
			})
			workload.Drive(v, trace)
		}(i, v)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("volserve: %d volumes x %d ops in %v (%.0f op/s fleet-wide)\n",
		*volumes, *ops, elapsed.Round(time.Millisecond),
		float64(*volumes**ops)/elapsed.Seconds())
	bad := false
	for i, v := range vols {
		st := v.Stats()
		fmt.Printf("  %-8s recoveries=%d panics=%d appFailures=%d scrubs=%d\n",
			v.Name(), st.Recoveries, st.PanicsCaught, st.AppFailures, st.ScrubPasses)
		if i == 0 && *storm {
			if st.Recoveries == 0 {
				fmt.Fprintln(os.Stderr, "volserve: storm volume never recovered — storm did not fire")
				bad = true
			}
			if st.AppFailures > 0 {
				fmt.Fprintf(os.Stderr, "volserve: storm volume surfaced %d app failures\n", st.AppFailures)
				bad = true
			}
		} else if st.Recoveries > 0 {
			fmt.Fprintf(os.Stderr, "volserve: healthy volume %s recovered %d times — isolation breach\n",
				v.Name(), st.Recoveries)
			bad = true
		}
	}

	fmt.Println()
	snap := m.FleetSnapshot()
	if *asJSON {
		check(snap.WriteJSON(os.Stdout))
	} else {
		check(snap.WriteText(os.Stdout))
	}

	if *listen != "" || *httpAddr != "" {
		fmt.Fprintln(os.Stderr, "volserve: workload done; still serving (interrupt to exit)")
		select {}
	}
	check(m.Shutdown())
	if bad {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "volserve: %v\n", err)
		os.Exit(1)
	}
}
