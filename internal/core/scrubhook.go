package core

import (
	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fsck"
	"repro/internal/journal"
	"repro/internal/scrub"
)

// Scrubber wiring and the supervisor's half of its contract: the
// scrubber checks frozen views and reports; the supervisor freezes views,
// refreshes the scoped-fsck trust baseline on clean passes, and trips the
// recovery fence proactively on corrupt ones.

// newScrubber wires a scrubber over a snapshottable device. Called once
// from Mount; passes run only when the host calls RunOnce.
func (r *FS) newScrubber(snap blockdev.Snapshotter) *scrub.Scrubber {
	return scrub.New(scrub.Config{
		Telemetry: r.tel,
		Freeze: func() (blockdev.Device, uint64, error) {
			// The generation is sampled before the snapshot: if a recovery
			// completes after this point, the gen comparison in onScrubReport
			// discards the (possibly stale) verdict.
			gen := r.gen.Load()
			view, err := frozenScrubView(snap.SnapshotDevice())
			return view, gen, err
		},
		OnReport: r.onScrubReport,
	})
}

// frozenScrubView layers the journal's committed transactions over a device
// snapshot, producing the logical post-replay image — the same composition
// the recovery plan freezes for the shadow. The snapshot may be taken
// mid-journal-replay or mid-commit; either way committed transactions are
// re-applied by the overlay and uncommitted ones are invisible, so the pass
// never mistakes in-flight writes for damage. Superblock problems are left
// for the checker to report, not treated as freeze failures.
func frozenScrubView(dev blockdev.Device) (blockdev.Device, error) {
	sbb, err := dev.ReadBlock(0)
	if err != nil {
		return dev, nil
	}
	sb, err := disklayout.DecodeSuperblock(sbb)
	if err != nil {
		return dev, nil
	}
	over, _, err := journal.CommittedOverlay(dev, sb)
	if err != nil {
		return nil, err
	}
	return blockdev.NewOverlay(dev, over), nil
}

// onScrubReport consumes one pass's verdict on the RunOnce caller's goroutine.
func (r *FS) onScrubReport(rep *fsck.Report, gen uint64) {
	if rep == nil {
		return // freeze failed; the scrubber already counted and journaled it
	}
	if rep.Clean() {
		// A clean full pass (re-)establishes the scoped-fsck baseline — the
		// on-disk state as of the frozen view is verified, and every write
		// since is in the touched set (nothing resets it outside recovery).
		// Entering the gate read-side excludes recoveries, so the generation
		// comparison and the flag store are atomic with respect to them; a
		// pass whose view predates a recovery is simply discarded. A clean
		// image also ends any corruption episode, re-arming the trip below.
		si := r.gate.enter()
		if r.gen.Load() == gen {
			r.verified.Store(true)
		}
		r.gate.exit(si)
		r.scrubTripped.Store(false)
		return
	}
	// Latent corruption: invalidate the baseline, then trip the recovery
	// fence proactively so the damage is handled before any application
	// operation observes it. recoverExclusive discards the trip if another
	// recovery superseded this pass's view. The trip fires once per
	// corruption episode (re-armed by a clean pass or a recovery whose
	// check passes): damage the recovery cannot repair — durable corruption
	// in a region nothing rewrites — would otherwise trip a recovery on
	// every pass forever, each one journaling the identical degrade. The
	// per-pass findings still land in scrub.* telemetry either way.
	r.verified.Store(false)
	if r.scrubTripped.CompareAndSwap(false, true) {
		flt := &fault{kind: "scrub", external: true, err: rep.Err()}
		r.recoverExclusive(flt, nil, gen)
	}
}
