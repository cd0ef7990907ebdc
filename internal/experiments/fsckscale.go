package experiments

// E13 — the parallel, region-scoped checker. Two harnesses:
//
//   - FsckParallelScale: sequential Check vs CheckParallel at increasing
//     worker counts on one populated image, with a per-read device service
//     time armed so the scan is IO-bound (the regime the pFSCK decomposition
//     targets). The headline number is the speedup at 8 workers.
//   - ScopedFsckScale: full check vs region-scoped check across image sizes
//     with the same small write gap. The full check's cost grows with the
//     image; the scoped check's cost tracks the gap, staying near-constant.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsck"
	"repro/internal/mkfs"
	"repro/internal/workload"
)

// FsckIOLatency is E13's per-block read service time. The checker is
// read-only, so only ReadLatency matters.
const FsckIOLatency = 10 * time.Microsecond

// FsckScaleResult is one row of the E13 worker-scaling series. DevReads is
// the deterministic cost metric (wall time on an in-memory device with
// microsecond sleeps is noisy at small scales): the parallel checker's win
// is fewer device reads (read-once cache) times worker overlap.
type FsckScaleResult struct {
	Workers   int // 0 = sequential baseline
	Elapsed   time.Duration
	Speedup   float64 // sequential / this
	DevReads  int64
	ChecksRun int64
	Problems  int
}

// populateImage formats blocks and runs a soup workload through the base
// filesystem, unmounting cleanly so the raw image checks clean.
func populateImage(blocks uint32, numOps int, seed int64) (*blockdev.Mem, *disklayout.Superblock, error) {
	dev := blockdev.NewMem(blocks)
	sb, err := mkfs.Format(dev, mkfs.Options{})
	if err != nil {
		return nil, nil, err
	}
	fs, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		return nil, nil, err
	}
	trace := workload.Generate(workload.Config{
		Profile: workload.Soup, Seed: seed, NumOps: numOps, Superblock: sb,
	})
	applyTrace(fs, trace)
	if err := fs.Unmount(); err != nil {
		return nil, nil, err
	}
	return dev, sb, nil
}

// FsckParallelScale measures the sequential checker and the parallel checker
// at each worker count on the same populated, latency-armed image (E13).
// Parity is asserted, not assumed: a parallel run whose findings diverge
// from the sequential baseline is an error, never a data point.
func FsckParallelScale(workerCounts []int, numOps int, seed int64, ioLat time.Duration) ([]FsckScaleResult, error) {
	dev, _, err := populateImage(ImageBlocks, numOps, seed)
	if err != nil {
		return nil, err
	}
	if ioLat > 0 {
		plan := blockdev.NewFaultPlan(seed)
		plan.ReadLatency = ioLat
		dev.SetFaults(plan)
	}
	r0 := dev.Stats().Reads.Load()
	t := time.Now()
	seq := fsck.Check(dev)
	seqDur := time.Since(t)
	res := []FsckScaleResult{{
		Workers: 0, Elapsed: seqDur, Speedup: 1,
		DevReads:  dev.Stats().Reads.Load() - r0,
		ChecksRun: seq.ChecksRun, Problems: len(seq.Problems),
	}}
	for _, w := range workerCounts {
		r0 := dev.Stats().Reads.Load()
		t := time.Now()
		rep := fsck.CheckParallel(dev, w)
		d := time.Since(t)
		if len(rep.Problems) != len(seq.Problems) || rep.ChecksRun != seq.ChecksRun {
			return nil, fmt.Errorf("experiments: parallel checker diverged at %d workers: %d problems/%d checks vs %d/%d",
				w, len(rep.Problems), rep.ChecksRun, len(seq.Problems), seq.ChecksRun)
		}
		res = append(res, FsckScaleResult{
			Workers: w, Elapsed: d, Speedup: seqDur.Seconds() / d.Seconds(),
			DevReads:  dev.Stats().Reads.Load() - r0,
			ChecksRun: rep.ChecksRun, Problems: len(rep.Problems),
		})
	}
	return res, nil
}

// ScopedScaleResult is one row of the E13 scoped-check series. Device reads
// are the cost metric: the full check's reads grow with the image, the
// scoped check's track the gap.
type ScopedScaleResult struct {
	ImageBlocks uint32
	GapBlocks   int // blocks in the scoped check's scope
	FullTime    time.Duration
	ScopedTime  time.Duration
	FullReads   int64
	ScopedReads int64
	ReadRatio   float64 // full reads / scoped reads
}

// ScopedFsckScale compares a full parallel check against a region-scoped
// check across image sizes, holding the write gap fixed (E13). The gap is a
// short second workload session whose device writes are captured by a write
// hook — exactly the touched-set capture the supervisor's fence performs —
// so the scope is the writes plus the superblock.
func ScopedFsckScale(imageSizes []uint32, gapOps, numOps int, seed int64, workers int, ioLat time.Duration) ([]ScopedScaleResult, error) {
	var res []ScopedScaleResult
	for _, blocks := range imageSizes {
		dev, sb, err := populateImage(blocks, numOps, seed)
		if err != nil {
			return nil, err
		}
		// The gap: a short session with every written block recorded.
		sc := fsck.NewScope()
		sc.Add(0)
		// The hook fires from concurrent queue workers; Scope is not.
		var scMu sync.Mutex
		dev.SetWriteHook(func(blk uint32) {
			scMu.Lock()
			sc.Add(blk)
			scMu.Unlock()
		})
		fs, err := basefs.Mount(dev, basefs.Options{})
		if err != nil {
			return nil, err
		}
		trace := workload.Generate(workload.Config{
			Profile: workload.MetaHeavy, Seed: seed + 1, NumOps: gapOps, Superblock: sb,
		})
		applyTrace(fs, trace)
		if err := fs.Unmount(); err != nil {
			return nil, err
		}
		dev.SetWriteHook(nil)
		if ioLat > 0 {
			plan := blockdev.NewFaultPlan(seed)
			plan.ReadLatency = ioLat
			dev.SetFaults(plan)
		}
		r0 := dev.Stats().Reads.Load()
		t := time.Now()
		full := fsck.CheckParallel(dev, workers)
		fullDur := time.Since(t)
		fullReads := dev.Stats().Reads.Load() - r0
		r0 = dev.Stats().Reads.Load()
		t = time.Now()
		scoped := fsck.CheckScoped(dev, sc, workers)
		scopedDur := time.Since(t)
		scopedReads := dev.Stats().Reads.Load() - r0
		if !full.Clean() || !scoped.Clean() {
			return nil, fmt.Errorf("experiments: image %d blocks checked unclean (full %d, scoped %d problems)",
				blocks, len(full.Problems), len(scoped.Problems))
		}
		res = append(res, ScopedScaleResult{
			ImageBlocks: blocks, GapBlocks: sc.Len(),
			FullTime: fullDur, ScopedTime: scopedDur,
			FullReads: fullReads, ScopedReads: scopedReads,
			ReadRatio: float64(fullReads) / float64(scopedReads),
		})
	}
	return res, nil
}
