package torture

import (
	"errors"
	"fmt"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fsck"
	"repro/internal/fserr"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
)

// Fault-class probabilities: low enough that most cases see zero or one
// fault (isolating the supervisor's reaction), high enough that the matrix
// exercises every class thousands of times across a full tier.
const (
	faultReadErrProb  = 0.05
	faultWriteErrProb = 0.05
	faultTornProb     = 0.05
)

// seamName maps an op kind to its faultinject seam, "" when the kind has no
// seam in the base (close and fsync are supervised wholesale, not seamed).
func seamName(k oplog.Kind) string {
	switch k {
	case oplog.KMkdir:
		return "mkdir"
	case oplog.KRmdir:
		return "rmdir"
	case oplog.KCreate:
		return "create"
	case oplog.KOpen:
		return "open"
	case oplog.KWrite:
		return "writeat"
	case oplog.KTruncate:
		return "truncate"
	case oplog.KUnlink:
		return "unlink"
	case oplog.KRename:
		return "rename"
	case oplog.KLink:
		return "link"
	case oplog.KSymlink:
		return "symlink"
	case oplog.KSetPerm:
		return "setperm"
	case oplog.KSync:
		return "sync"
	}
	return ""
}

// seamForWindow returns the seam of the first window op that has one, "" if
// the window offers no crash site.
func seamForWindow(window []*oplog.Op) string {
	for _, o := range window {
		if s := seamName(o.Kind); s != "" {
			return s
		}
	}
	return ""
}

// faultCaseConfig is the supervisor every fault case mounts: the production
// recovery engine on one worker and single-worker queues, so that only one
// goroutine at a time touches the device and a seeded fault plan meets the
// same device calls on every run.
func faultCaseConfig(reg *faultinject.Registry) core.Config {
	return core.Config{
		Base:            basefs.Options{QueueWorkers: 1, QueueDepth: 1, Injector: reg},
		RecoveryWorkers: 1,
		NoTelemetry:     true,
	}
}

// runFaultCase executes one unit window under the live RAE supervisor with
// one fault class armed, then checks the supervisor's contract:
//
//   - No fault may surface to the application unless the supervisor degraded
//     to crash-restart (the documented escape hatch).
//   - Without degradation, outcomes and final state must match the model
//     exactly, fault or no fault.
//   - With or without degradation, files the prelude sync made durable (and
//     the window never touched) must survive, and the final on-disk image
//     must pass a full fsck.
//
// Returns nil when the case passes. Determinism: the supervisor is
// faultCaseConfig's, and the fault plan's seed derives from (unit seed,
// class, salt).
func runFaultCase(id caseID, pl *plan, sb *disklayout.Superblock, class Class, salt int) (*Failure, error) {
	fail := func(kind, locus, detail string) *Failure {
		return &Failure{
			Class: class, Profile: id.profile, Seed: id.seed, WinLen: id.winLen,
			Point: salt, Kind: kind, Locus: normalizeLocus(locus), Detail: detail,
			Shape: shapeOf(pl.window), Prelude: pl.prelude, Window: pl.window,
		}
	}

	dev := blockdev.NewMem(devBlocks)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: devInodes, JournalBlocks: devJournal}); err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	var reg *faultinject.Registry
	if class == ClassInjectCrash {
		reg = faultinject.NewRegistry(deriveSeed(id.seed, int64(class), int64(salt)))
	}
	fs, err := core.Mount(dev, faultCaseConfig(reg))
	if err != nil {
		return nil, fmt.Errorf("core mount: %w", err)
	}
	mounted := true
	defer func() {
		if mounted {
			fs.Kill()
		}
	}()
	m := model.New(sb)

	// Prelude under no faults, then a durable point.
	for _, oracle := range pl.prelude {
		got := mustClone(oracle)
		if err := safeOpApply(fs, got); err != nil {
			return fail("checker-error", "prelude", err.Error()), nil
		}
		_ = oplog.Apply(m, mustClone(oracle))
	}
	if err := syncBoth(fs, m); err != nil {
		return fail("checker-error", "prelude-sync", err.Error()), nil
	}
	preludeState, err := difftest.DumpState(m)
	if err != nil {
		return nil, fmt.Errorf("model dump: %w", err)
	}
	strict := strictFiles(preludeState, pl.isTouched)

	// Arm the class.
	switch class {
	case ClassReadErr, ClassWriteErr, ClassTornFault:
		planSeed := deriveSeed(id.seed, int64(class), int64(salt))
		template := blockdev.NewFaultPlan(planSeed)
		switch class {
		case ClassReadErr:
			template.ReadErrProb = faultReadErrProb
		case ClassWriteErr:
			template.WriteErrProb = faultWriteErrProb
		case ClassTornFault:
			template.TornWriteProb = faultTornProb
		}
		dev.SetFaults(template.Fork(int64(salt)))
	case ClassInjectCrash:
		reg.Arm(&faultinject.Specimen{
			ID:            "torture-crash",
			Class:         faultinject.Crash,
			Deterministic: true,
			MaxFires:      1,
			Op:            seamForWindow(pl.window),
		})
	}

	// Window under fire.
	var unmasked, divergent *difftest.Discrepancy
	for _, oracle := range pl.window {
		got := mustClone(oracle)
		if err := safeOpApply(fs, got); err != nil {
			dev.SetFaults(nil)
			return fail("checker-error", "window/"+oracle.Kind.String(), err.Error()), nil
		}
		_ = oplog.Apply(m, mustClone(oracle))
		for _, d := range difftest.CompareOutcome(got, oracle) {
			d := d
			if fserr.IsFault(fserr.FromErrno(got.Errno)) && oracle.Errno == 0 {
				if unmasked == nil {
					unmasked = &d
				}
			} else if divergent == nil {
				divergent = &d
			}
		}
	}

	// Disarm, then force a durable point with the device healthy again.
	dev.SetFaults(nil)
	if reg != nil {
		reg.DisarmAll()
	}
	if err := syncBoth(fs, m); err != nil {
		return fail("checker-error", "final-sync", err.Error()), nil
	}

	stats := fs.Stats()
	degraded := stats.Degradations > 0

	// Contract 1: faults never reach the app unless the supervisor degraded.
	if !degraded && unmasked != nil {
		return fail("unmasked-fault", unmasked.Field, unmasked.String()), nil
	}
	if !degraded && divergent != nil {
		return fail("outcome-divergence", divergent.Field, divergent.String()), nil
	}

	// Contract 2: without degradation, the surviving state matches the
	// model. (Degradation legally discards un-synced operations and open
	// descriptors, so the model comparison does not apply.)
	if !degraded {
		finalModelState, err := difftest.DumpState(m)
		if err != nil {
			return nil, fmt.Errorf("model dump: %w", err)
		}
		liveState, err := difftest.DumpState(fs)
		if err != nil {
			var pe *difftest.PanicError
			if errors.As(err, &pe) || errors.Is(err, difftest.ErrWalkLimit) {
				return fail("checker-error", "live-walk", err.Error()), nil
			}
			return fail("state-divergence", "walk", err.Error()), nil
		}
		if d := difftest.CompareStates(liveState, finalModelState); len(d) > 0 {
			return fail("state-divergence", d[0].Field, d[0].String()), nil
		}
	} else {
		// Contract 3: even a degraded supervisor must preserve everything
		// the prelude sync promised for files the window never touched.
		for path, fe := range strict {
			st, err := fs.Stat(path)
			if err != nil {
				return fail("durability-loss", "missing",
					fmt.Sprintf("%s after degradation: stat: %v", path, err)), nil
			}
			if st.Size != fe.size {
				return fail("durability-loss", "size",
					fmt.Sprintf("%s after degradation: size %d, want %d", path, st.Size, fe.size)), nil
			}
		}
	}

	// Contract 4: the final image is structurally sound.
	mounted = false
	if err := fs.Unmount(); err != nil {
		return fail("unmount-error", "unmount", err.Error()), nil
	}
	if rep := fsck.Check(dev); !rep.Clean() {
		p := firstCorrupt(rep)
		return fail("post-fault-corrupt", p.Where, p.String()), nil
	}
	return nil, nil
}
