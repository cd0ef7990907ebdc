// Command difftest runs the §4.3 differential testing campaign from the
// command line: large volumes of generated workloads against the base or
// the shadow, with the executable specification as the oracle, reporting
// every discrepancy.
//
// Usage:
//
//	difftest [-subject base|shadow|both] [-seeds 8] [-ops 1000]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/difftest"
	"repro/internal/fsapi"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/shadowfs"
	"repro/internal/workload"
)

// imageBlocks sizes the fresh image of every run (64 MiB).
const imageBlocks = 16384

// errDiscrepancies reports a campaign in which some subject diverged from
// the specification.
var errDiscrepancies = errors.New("discrepancies found")

func main() {
	subject := flag.String("subject", "both", "implementation under test: base, shadow, both")
	seeds := flag.Int("seeds", 8, "seeds per workload profile")
	ops := flag.Int("ops", 1000, "operations per run")
	flag.Parse()

	subjects := []string{*subject}
	switch *subject {
	case "base", "shadow":
	case "both":
		subjects = []string{"base", "shadow"}
	default:
		fmt.Fprintf(os.Stderr, "difftest: unknown subject %q\n", *subject)
		os.Exit(2)
	}
	if err := run(os.Stdout, subjects, *seeds, *ops, workload.Profiles(), basefs.Options{}); err != nil {
		fmt.Fprintf(os.Stderr, "difftest: %v\n", err)
		os.Exit(1)
	}
}

// run checks each subject against the specification on every profile for
// seeds 1..seeds, ops operations per run, each on a fresh image, and writes
// the report to w. The base subject mounts with base, so a campaign can be
// pointed at a base with planted bugs. It returns errDiscrepancies if any
// run diverged.
func run(w io.Writer, subjects []string, seeds, ops int, profiles []workload.Profile, base basefs.Options) error {
	total := 0
	for _, s := range subjects {
		start := time.Now()
		runs, executed := 0, 0
		var found []difftest.Discrepancy
		first := ""
		for _, profile := range profiles {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				dev := blockdev.NewMem(imageBlocks)
				sb, err := mkfs.Format(dev, mkfs.Options{})
				if err != nil {
					return err
				}
				fs, kill, err := mountSubject(s, dev, base)
				if err != nil {
					return err
				}
				trace := workload.Generate(workload.Config{
					Profile: profile, Seed: seed, NumOps: ops, Superblock: sb,
				})
				disc, err := difftest.VerifyEquivalence(fs, model.New(sb), trace)
				kill()
				if err != nil {
					// A subject whose tree cannot even be walked (reads fail with
					// corruption) is the strongest possible discrepancy, not an
					// infrastructure error.
					disc = append(disc, difftest.Discrepancy{
						Field: "state-dump",
						Got:   err.Error(),
						Want:  "walkable tree",
					})
				}
				runs++
				executed += len(trace)
				if len(disc) > 0 && first == "" {
					first = fmt.Sprintf("%s subject, %s profile, seed %d: %s", s, profile, seed, disc[0])
				}
				found = append(found, disc...)
			}
		}
		fmt.Fprintf(w, "%s vs specification: %d runs, %d ops, %d discrepancies (%.1fs)\n",
			s, runs, executed, len(found), time.Since(start).Seconds())
		if len(found) > 0 {
			fmt.Fprintf(w, "  first: %s\n", first)
			for _, d := range found[:min(len(found), 10)] {
				fmt.Fprintf(w, "  %s\n", d)
			}
		}
		total += len(found)
	}
	if total > 0 {
		return fmt.Errorf("%w: %d", errDiscrepancies, total)
	}
	fmt.Fprintln(w, "no discrepancies: implementations are observationally equivalent to the specification")
	return nil
}

// mountSubject brings up the named implementation on a formatted device and
// returns it with the function that tears it down.
func mountSubject(subject string, dev blockdev.Device, base basefs.Options) (fsapi.FS, func(), error) {
	if subject == "shadow" {
		sh, err := shadowfs.New(dev, shadowfs.Options{SkipFsck: true})
		return sh, func() {}, err
	}
	b, err := basefs.Mount(dev, base)
	if err != nil {
		return nil, nil, err
	}
	return b, b.Kill, nil
}
