package torture

import (
	"strings"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/model"
	"repro/internal/oplog"
	"repro/internal/workload"
)

// Campaign device geometry: small enough that fsck-per-crash-point is cheap,
// large enough that no bounded workload hits ENOSPC by accident. The same
// geometry parameterizes the workload generator's internal model, the
// campaign's oracle model, and the formatted device, so outcome comparison is
// exact.
const (
	devBlocks  = 1024
	devInodes  = 128
	devJournal = 32
	// preludeOps targets the number of setup operations generated before the
	// window: enough churn that window ops act on real state (open
	// descriptors, populated directories, a prior durable point).
	preludeOps = 12
)

// Unit is one workload execution: a (profile, derived seed, window length)
// triple. A unit expands into many checked cases — every crash point, every
// torn point, the oracle control, and every fault-class run.
type Unit struct {
	Profile workload.Profile
	SeedIdx int
	Seed    int64
	WinLen  int
}

// unitResult carries a unit's case count and failures back to the driver.
// writes lists the crash enumeration's recorded writes, one per crash point.
type unitResult struct {
	cases    int
	failures []*Failure
	writes   []writeRec
}

// mix64 is the SplitMix64 finalizer, the same derivation blockdev.FaultPlan
// uses, so all campaign seeds are well-separated functions of (Seed, salt).
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func deriveSeed(root int64, salts ...int64) int64 {
	x := uint64(root)
	for _, s := range salts {
		x = mix64(x ^ mix64(uint64(s)))
	}
	return int64(x)
}

// unitsOf enumerates the campaign matrix in deterministic order.
func unitsOf(cfg Config) []Unit {
	var us []Unit
	for _, p := range cfg.Profiles {
		for si := 0; si < cfg.SeedsPerProfile; si++ {
			for _, wl := range cfg.WinLens {
				us = append(us, Unit{
					Profile: p,
					SeedIdx: si,
					Seed:    deriveSeed(cfg.Seed, int64(p), int64(si)),
					WinLen:  wl,
				})
			}
		}
	}
	return us
}

// buildWorkload generates the unit's trace and splits it into a prelude
// (synced before the window) and the bounded window under test. The
// generator may overshoot its op target by a couple of ops (profile steps
// emit small clusters); the window is always the trace's tail.
func buildWorkload(p workload.Profile, seed int64, winLen int, sb *disklayout.Superblock) (prelude, window []*oplog.Op) {
	trace := workload.Generate(workload.Config{
		Profile:    p,
		Seed:       seed,
		NumOps:     preludeOps + winLen,
		Superblock: sb,
	})
	if len(trace) <= winLen {
		return nil, trace
	}
	return trace[:len(trace)-winLen], trace[len(trace)-winLen:]
}

// plan is the precomputed oracle view of a unit: outcome-filled clones of
// the ops (from a fresh model, so shrunk windows re-derive consistent
// outcomes), the descriptor→path map at the window boundary, and the set of
// paths the window touches (used to scope durability checks to files whose
// content is provably stable).
type plan struct {
	prelude []*oplog.Op
	window  []*oplog.Op
	// fdPath maps descriptors open at the start of the window to paths.
	fdPath map[fsapi.FD]string
	// touched holds every path a window op may mutate (exact paths; a
	// directory entry covers its whole subtree via isTouched).
	touched map[string]bool
}

// newPlan clones the ops, replays them through a scratch model to fill
// oracle outcomes, and computes the touched set. The caller's ops are never
// mutated.
func newPlan(prelude, window []*oplog.Op, sb *disklayout.Superblock) *plan {
	pl := &plan{
		fdPath:  make(map[fsapi.FD]string),
		touched: make(map[string]bool),
	}
	m := model.New(sb)
	clone := func(ops []*oplog.Op) []*oplog.Op {
		out := make([]*oplog.Op, len(ops))
		for i, o := range ops {
			c := o.Clone()
			c.Errno, c.RetFD, c.RetIno, c.RetN, c.RetData = 0, 0, 0, 0, nil
			_ = oplog.Apply(m, c)
			out[i] = c
		}
		return out
	}
	pl.prelude = clone(prelude)
	// Track descriptors through the prelude so window FD references resolve.
	fd := pl.fdPath
	track := func(o *oplog.Op) {
		if o.Errno != 0 {
			return
		}
		switch o.Kind {
		case oplog.KCreate, oplog.KOpen:
			fd[o.RetFD] = o.Path
		case oplog.KClose:
			delete(fd, o.FD)
		case oplog.KRename:
			for d, p := range fd {
				if p == o.Path || strings.HasPrefix(p, o.Path+"/") {
					fd[d] = o.Path2 + strings.TrimPrefix(p, o.Path)
				}
			}
		}
	}
	for _, o := range pl.prelude {
		track(o)
	}
	// The window: fill outcomes, then compute what it may touch. Window fd
	// tracking continues so a window [open, write] resolves its own fd.
	pl.window = clone(window)
	for _, o := range pl.window {
		switch o.Kind {
		case oplog.KMkdir, oplog.KRmdir, oplog.KCreate, oplog.KUnlink,
			oplog.KSymlink, oplog.KTruncate, oplog.KSetPerm:
			pl.touched[o.Path] = true
		case oplog.KRename:
			pl.touched[o.Path] = true
			pl.touched[o.Path2] = true
		case oplog.KLink:
			pl.touched[o.Path] = true
			pl.touched[o.Path2] = true
		case oplog.KWrite:
			if p, ok := fd[o.FD]; ok {
				pl.touched[p] = true
			}
		}
		track(o)
	}
	return pl
}

// isTouched reports whether the window may have mutated path (directly, or
// via an ancestor directory it renamed or removed).
func (pl *plan) isTouched(path string) bool {
	if pl.touched[path] {
		return true
	}
	for t := range pl.touched {
		if strings.HasPrefix(path, t+"/") {
			return true
		}
	}
	return false
}

// windowFDPath resolves a window op's descriptor to a path using the
// boundary fd table (descriptors the window itself opens resolve through the
// plan's tracking at construction; this helper is for fsync boundaries,
// whose descriptors are open at the op's position by definition).
func (pl *plan) windowFDPath(upTo int, target fsapi.FD) (string, bool) {
	fd := make(map[fsapi.FD]string, len(pl.fdPath))
	for k, v := range pl.fdPath {
		fd[k] = v
	}
	for i := 0; i < upTo && i < len(pl.window); i++ {
		o := pl.window[i]
		if o.Errno != 0 {
			continue
		}
		switch o.Kind {
		case oplog.KCreate, oplog.KOpen:
			fd[o.RetFD] = o.Path
		case oplog.KClose:
			delete(fd, o.FD)
		case oplog.KRename:
			for d, p := range fd {
				if p == o.Path || strings.HasPrefix(p, o.Path+"/") {
					fd[d] = o.Path2 + strings.TrimPrefix(p, o.Path)
				}
			}
		}
	}
	p, ok := fd[target]
	return p, ok
}

// runUnit executes every case class for one unit.
func runUnit(u Unit, sb *disklayout.Superblock, cfg Config) (unitResult, error) {
	prelude, window := buildWorkload(u.Profile, u.Seed, u.WinLen, sb)
	pl := newPlan(prelude, window, sb)

	var res unitResult
	crash, err := runCrashEnum(caseID{u.Profile, u.Seed, u.WinLen}, pl, sb)
	if err != nil {
		return res, err
	}
	res.cases += crash.cases
	res.failures = append(res.failures, crash.failures...)

	for _, cl := range []Class{ClassReadErr, ClassWriteErr, ClassTornFault} {
		for salt := 0; salt < cfg.FaultSalts; salt++ {
			fr, err := runFaultCase(caseID{u.Profile, u.Seed, u.WinLen}, pl, sb, cl, salt)
			if err != nil {
				return res, err
			}
			res.cases++
			if fr != nil {
				res.failures = append(res.failures, fr)
			}
		}
	}
	if seamForWindow(pl.window) != "" {
		fr, err := runFaultCase(caseID{u.Profile, u.Seed, u.WinLen}, pl, sb, ClassInjectCrash, 0)
		if err != nil {
			return res, err
		}
		res.cases++
		if fr != nil {
			res.failures = append(res.failures, fr)
		}
	}
	return res, nil
}

// caseID carries the identity fields every Failure gets stamped with.
type caseID struct {
	profile workload.Profile
	seed    int64
	winLen  int
}
