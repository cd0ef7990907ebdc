// Command shadowreplay is the offline post-error testing tool of §4.3: it
// takes a filesystem image (the trusted on-disk state) and a serialized
// recovery input (the recorded operation sequence with the base's outcomes,
// as dumped by core.FS.DumpLog), re-executes the sequence on the shadow in
// constrained mode, and reports every discrepancy between the base's
// recorded behavior and the shadow's, with the time each stage took. With
// -apply, the shadow's sealed handoff is written back to the image, producing
// the recovered state.
//
// Usage:
//
//	shadowreplay -img disk.img -trace trace.bin [-apply] [-stop]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/blockdev"
	"repro/internal/mkfs"
	"repro/internal/oplog"
	"repro/internal/shadowfs"
)

func main() {
	img := flag.String("img", "", "filesystem image (trusted on-disk state)")
	trace := flag.String("trace", "", "serialized recovery input (core.FS.DumpLog output)")
	apply := flag.Bool("apply", false, "write the shadow's handoff back to the image")
	stop := flag.Bool("stop", false, "abort on the first discrepancy")
	flag.Parse()
	if *img == "" || *trace == "" {
		fmt.Fprintln(os.Stderr, "shadowreplay: -img and -trace are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *img, *trace, *apply, *stop); err != nil {
		fmt.Fprintf(os.Stderr, "shadowreplay: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, img, trace string, apply, stop bool) error {
	dev, err := blockdev.OpenFile(img, 0, false)
	if err != nil {
		return err
	}
	defer dev.Close()

	// The image must first reach its stable point: replay the journal as a
	// mount would.
	_, st, err := mkfs.Recover(dev)
	if err != nil {
		return err
	}
	if st.Committed > 0 {
		fmt.Fprintf(w, "journal: replayed %d transactions\n", st.Committed)
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		return err
	}
	ops, fds, clock, err := oplog.DecodeSequence(raw)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d operations, %d stable-point descriptors, clock %d\n",
		len(ops), len(fds), clock)

	t := time.Now()
	sh, err := shadowfs.New(dev, shadowfs.Options{})
	if err != nil {
		return err
	}
	fsckDur := time.Since(t)
	t = time.Now()
	res, err := sh.Replay(shadowfs.ReplayInput{
		Ops:               ops,
		BaseFDs:           fds,
		StartClock:        clock,
		StopOnDiscrepancy: stop,
	})
	replayDur := time.Since(t)
	if res != nil {
		fmt.Fprintf(w, "replayed %d operations (%d skipped), %d runtime checks, %d overlay blocks\n",
			res.OpsReplayed, res.OpsSkipped, res.ChecksRun, res.OverlayBlocks)
		if len(res.Discrepancies) == 0 {
			fmt.Fprintln(w, "no discrepancies: the base's recorded behavior matches the shadow")
		} else {
			fmt.Fprintf(w, "%d discrepancies (bugs in the base or missing conditions in the shadow):\n",
				len(res.Discrepancies))
			for _, d := range res.Discrepancies {
				fmt.Fprintln(w, "  ", d)
			}
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stages: fsck %v, replay %v\n", fsckDur, replayDur)

	if apply {
		blocks := 0
		for _, c := range res.Chunks {
			for _, blk := range c.SortedBlocks() {
				if err := dev.WriteBlock(blk, c.Blocks[blk]); err != nil {
					return err
				}
			}
			blocks += len(c.Blocks)
		}
		if err := dev.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "applied %d blocks to %s\n", blocks, img)
	}
	return nil
}
