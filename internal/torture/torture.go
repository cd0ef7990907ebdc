// Package torture implements the bounded black-box crash+fault campaign:
// the systematic confidence engine behind the paper's central claim that
// shadow-filesystem RAE masks runtime errors with no app-visible failures.
//
// Following CrashMonkey/B3 (Mohan et al.), the campaign exhaustively
// exercises *small* workloads — windows of at most three operations drawn
// from the workload generator's profiles, on top of a synced prelude — and
// checks every one of:
//
//   - Crash points: the device is snapshotted after every single block write
//     in the window (mid data write-back, mid journal append, between commit
//     and checkpoint, mid checkpoint, mid unmount), each snapshot is
//     journal-recovered, fsck'd, mounted, and checked for durability of
//     everything a completed sync or fsync promised.
//   - Torn points: the same enumeration with the final write torn (first
//     half new, second half stale), modeling a torn sector at power cut.
//   - Device fault classes: probabilistic read errors, write errors, and
//     silent torn writes injected under the live RAE supervisor, which must
//     mask them (or degrade to crash-restart — never corrupt).
//   - Injected code crashes: a deterministic faultinject specimen planted on
//     a window operation's seam, contained and recovered by the supervisor.
//
// Every recovered or surviving state is checked against the executable
// specification model through the difftest oracle plus a full fsck pass.
// Failures are deduped by signature (fault class + window shape + first
// finding kind and locus), shrunk to a minimal reproducer by greedy op
// removal and payload truncation, and emitted as replayable cases.
//
// The campaign is deterministic from one seed: workload seeds and fault-plan
// seeds derive via SplitMix64, the base filesystem issues its IO on the
// caller's goroutine so write order is fixed, and recovery runs sequentially
// — so the case count, every case's content, and every failure are
// reproducible, which is what lets CI assert an exact case count and lets a
// shrunk reproducer stay a faithful regression test.
package torture

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/disklayout"
	"repro/internal/oplog"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Class enumerates the campaign's fault classes.
type Class int

// Fault classes.
const (
	// ClassCrash is a clean power cut after the k-th block write.
	ClassCrash Class = iota
	// ClassTorn is a power cut whose final write is torn mid-block.
	ClassTorn
	// ClassOracle is the no-fault control: the live post-window state must
	// match the executable specification exactly.
	ClassOracle
	// ClassReadErr injects probabilistic device read errors under RAE.
	ClassReadErr
	// ClassWriteErr injects probabilistic device write errors under RAE.
	ClassWriteErr
	// ClassTornFault injects probabilistic silent torn writes under RAE.
	ClassTornFault
	// ClassInjectCrash plants a deterministic faultinject crash on a window
	// operation's seam under RAE.
	ClassInjectCrash
)

// String names the class in signatures and reports.
func (c Class) String() string {
	switch c {
	case ClassCrash:
		return "crash"
	case ClassTorn:
		return "torn"
	case ClassOracle:
		return "oracle"
	case ClassReadErr:
		return "readerr"
	case ClassWriteErr:
		return "writeerr"
	case ClassTornFault:
		return "tornfault"
	case ClassInjectCrash:
		return "injectcrash"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// classFromString inverts String for repro files.
func classFromString(s string) (Class, bool) {
	for c := ClassCrash; c <= ClassInjectCrash; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// Config parameterizes a campaign run.
type Config struct {
	// Seed drives everything: workload seeds, fault-plan seeds, specimen
	// registries. Equal configs produce equal case counts and equal failures.
	Seed int64
	// SeedsPerProfile is the number of derived workload seeds per profile.
	SeedsPerProfile int
	// WinLens lists the window lengths to enumerate (default 1, 2, 3; B3's
	// bound is ≤3 ops).
	WinLens []int
	// Profiles lists the workload profiles to draw from (default all four).
	Profiles []workload.Profile
	// FaultSalts is the number of derived fault-plan seeds per probabilistic
	// fault class per workload (default 2).
	FaultSalts int
	// Parallelism bounds concurrently executing workload units (default 8).
	// Every unit runs on its own isolated in-memory device, so units never
	// share mutable state.
	Parallelism int
	// Shrink enables minimization of one representative per unique failure
	// signature (default on in both tiers; disable for raw triage speed).
	Shrink bool
	// ShrinkBudget bounds executor re-runs per shrink (default 48).
	ShrinkBudget int
	// TimeBudget, when positive, stops dispatching new units once exceeded.
	// A truncated run sets Result.Truncated; CI tiers are sized to finish
	// far inside their budget so the deterministic case count holds.
	TimeBudget time.Duration
	// Telemetry receives torture.* counters; nil uses telemetry.Default().
	Telemetry *telemetry.Sink
}

func (c *Config) fill() {
	if c.SeedsPerProfile <= 0 {
		c.SeedsPerProfile = 4
	}
	if len(c.WinLens) == 0 {
		c.WinLens = []int{1, 2, 3}
	}
	if len(c.Profiles) == 0 {
		c.Profiles = workload.Profiles()
	}
	if c.FaultSalts <= 0 {
		c.FaultSalts = 2
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 8
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 48
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.Default()
	}
}

// FullTier is the exhaustive campaign: every profile, many seeds, every
// window length — ≥5,000 cases from one seed.
func FullTier(seed int64) Config {
	return Config{Seed: seed, SeedsPerProfile: 12, Shrink: true}
}

// ReducedTier is the seeded CI smoke: one seed per profile, all window
// lengths, small fault sampling. It finishes in seconds and its case count
// is asserted exactly in CI.
func ReducedTier(seed int64) Config {
	return Config{Seed: seed, SeedsPerProfile: 1, FaultSalts: 1, Shrink: true}
}

// Failure is one checked case that violated an invariant.
type Failure struct {
	// Class, Profile, Seed, WinLen, Point identify the case: Point is the
	// crash index (1-based block-write count) for crash/torn classes and the
	// fault salt for fault classes.
	Class   Class
	Profile workload.Profile
	Seed    int64
	WinLen  int
	Point   int
	// Kind is the violated invariant ("fsck", "durability-loss",
	// "state-divergence", ...) and Locus its normalized location.
	Kind  string
	Locus string
	// Detail is the human-readable finding.
	Detail string
	// Shape is the comma-joined window op kinds, part of the signature.
	Shape string
	// Prelude and Window are the ops that reproduce the failure (Window
	// possibly shrunk below WinLen).
	Prelude []*oplog.Op
	Window  []*oplog.Op
	// Shrunk marks a minimized reproducer; OrigOps is the window length
	// before shrinking.
	Shrunk  bool
	OrigOps int
}

// String formats the failure for reports.
func (f *Failure) String() string {
	return fmt.Sprintf("[%s] %s seed=%d win=%d point=%d %s:%s — %s",
		f.Class, f.Profile, f.Seed, len(f.Window), f.Point, f.Kind, f.Locus, f.Detail)
}

// Result summarizes a campaign run.
type Result struct {
	// Cases is the number of checked cases (crash images, torn images,
	// oracle controls, fault runs).
	Cases int
	// Failures is the raw failure count before dedup.
	Failures int
	// Dedup is how many raw failures were collapsed as duplicates.
	Dedup int
	// Unique holds one (shrunk) representative per unique signature, in
	// deterministic unit order.
	Unique []*Failure
	// Elapsed and CasesPerSec describe throughput.
	Elapsed     time.Duration
	CasesPerSec float64
	// ShrinkAttempts counts executor re-runs spent shrinking and
	// ShrinkRemovedOps the window ops eliminated across all signatures.
	ShrinkAttempts   int
	ShrinkRemovedOps int
	// Truncated is set when TimeBudget stopped the run early; a truncated
	// case count is not comparable across runs.
	Truncated bool
}

// Signatures returns the sorted unique failure signatures.
func (r *Result) Signatures() []string {
	out := make([]string, len(r.Unique))
	for i, f := range r.Unique {
		out[i] = f.Signature()
	}
	sort.Strings(out)
	return out
}

// Run executes the campaign and returns its result. The only error paths are
// operational (a unit that cannot even format its device); invariant
// violations come back as Failures, and a case that poisons the checker
// itself (difftest typed errors) is recorded as a "checker-error" failure
// rather than aborting the run.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	sb, err := disklayout.Geometry(devBlocks, devInodes, devJournal)
	if err != nil {
		return nil, fmt.Errorf("torture: geometry: %w", err)
	}
	us := unitsOf(cfg)
	start := time.Now()

	type unitOut struct {
		res unitResult
		err error
	}
	outs := make([]unitOut, len(us))
	var (
		wg        sync.WaitGroup
		truncated bool
		truncMu   sync.Mutex
	)
	sem := make(chan struct{}, cfg.Parallelism)
	for i := range us {
		if cfg.TimeBudget > 0 && time.Since(start) > cfg.TimeBudget {
			truncMu.Lock()
			truncated = true
			truncMu.Unlock()
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := runUnit(us[i], sb, cfg)
			outs[i] = unitOut{res, err}
		}(i)
	}
	wg.Wait()

	r := &Result{Truncated: truncated}
	dedup := make(map[string]*Failure)
	for i := range us {
		if outs[i].err != nil {
			return nil, fmt.Errorf("torture: unit %s/s%d/w%d: %w",
				us[i].Profile, us[i].SeedIdx, us[i].WinLen, outs[i].err)
		}
		r.Cases += outs[i].res.cases
		for _, f := range outs[i].res.failures {
			r.Failures++
			sig := f.Signature()
			if _, ok := dedup[sig]; ok {
				r.Dedup++
				continue
			}
			dedup[sig] = f
			r.Unique = append(r.Unique, f)
		}
	}

	if cfg.Shrink {
		for i, f := range r.Unique {
			shrunk, attempts, removed := shrinkFailure(f, sb, cfg.ShrinkBudget)
			r.ShrinkAttempts += attempts
			r.ShrinkRemovedOps += removed
			r.Unique[i] = shrunk
		}
		// Shrinking shortens windows, so two signatures that differed only
		// in window shape can converge on the same minimal reproducer;
		// re-dedup so one root cause stays one line.
		reseen := make(map[string]bool)
		kept := r.Unique[:0]
		for _, f := range r.Unique {
			sig := f.Signature()
			if reseen[sig] {
				r.Dedup++
				continue
			}
			reseen[sig] = true
			kept = append(kept, f)
		}
		r.Unique = kept
	}

	r.Elapsed = time.Since(start)
	if secs := r.Elapsed.Seconds(); secs > 0 {
		r.CasesPerSec = float64(r.Cases) / secs
	}
	tel := cfg.Telemetry
	tel.Counter("torture.cases").Add(int64(r.Cases))
	tel.Counter("torture.failures").Add(int64(r.Failures))
	tel.Counter("torture.dedup").Add(int64(r.Dedup))
	tel.Counter("torture.shrink.attempts").Add(int64(r.ShrinkAttempts))
	tel.Counter("torture.shrink.removed_ops").Add(int64(r.ShrinkRemovedOps))
	for _, f := range r.Unique {
		tel.Event("torture.signature", "%s", f.Signature())
	}
	return r, nil
}
