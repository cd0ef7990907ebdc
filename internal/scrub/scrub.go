// Package scrub is the online scrubber: each pass runs the filesystem
// checker over a frozen read-only view of the device, turning verification
// from a recovery-time tax into an always-on guarantee. The scrubber has no
// timer of its own; its host schedules passes through RunOnce (the volume
// manager's fleet sweep is the one scheduler).
//
// The paper's trust chain ("contained reboot + shadow replay start from
// trusted on-disk state") is only as strong as the last time that state was
// actually verified. Faults force a check; latent corruption — a bit rot,
// a torn write that slipped past the journal, a bug that scribbled through —
// does not, and waits for an application to trip over it. The scrubber
// closes that window: each pass checks a snapshot composed with the
// journal's committed-transaction overlay (the exact logical post-replay
// image), so it races with nothing and never reports in-flight writes as
// damage. A Corrupt finding is handed to the supervisor, which trips its
// recovery fence proactively — the damage is repaired before any
// application operation observes it. A clean pass refreshes the baseline
// the region-scoped recovery checks build on.
package scrub

import (
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fsck"
	"repro/internal/telemetry"
)

// Config wires a Scrubber to its host.
type Config struct {
	// Telemetry receives scrub.* instruments; nil disables observability.
	Telemetry *telemetry.Sink
	// Freeze produces the frozen read-only view a pass checks, plus an
	// opaque generation token the host uses to detect that the view went
	// stale (a recovery ran) before acting on the verdict. Called once per
	// pass; an error skips the pass.
	Freeze func() (view blockdev.Device, gen uint64, err error)
	// OnReport receives every completed pass's report together with the
	// freeze-time generation token. Called on the RunOnce caller's
	// goroutine.
	OnReport func(rep *fsck.Report, gen uint64)
}

// Scrubber runs verification passes and counts their outcomes. Create with
// New and drive with RunOnce.
type Scrubber struct {
	cfg Config

	passes     atomic.Int64
	cleanPass  atomic.Int64
	corrupt    atomic.Int64
	freezeErrs atomic.Int64
}

// New returns a scrubber.
func New(cfg Config) *Scrubber { return &Scrubber{cfg: cfg} }

// RunOnce performs one scrub pass synchronously: freeze, check, publish,
// report. Returns the pass's report, or nil when the freeze failed.
func (s *Scrubber) RunOnce() *fsck.Report {
	tel := s.cfg.Telemetry
	view, gen, err := s.cfg.Freeze()
	if err != nil {
		s.freezeErrs.Add(1)
		tel.Counter("scrub.freeze_errors").Inc()
		tel.Event("scrub", "freeze failed, pass skipped: %v", err)
		return nil
	}
	t := time.Now()
	rep := fsck.Check(view)
	dur := time.Since(t)

	s.passes.Add(1)
	tel.Counter("scrub.passes").Inc()
	tel.Histogram("scrub.pass_ns").Observe(dur)
	tel.Counter("scrub.checks_run").Add(rep.ChecksRun)
	if n := rep.CorruptCount(); n > 0 {
		s.corrupt.Add(1)
		tel.Counter("scrub.findings.corrupt").Add(int64(n))
		tel.Event("scrub", "pass found %d corruption problems, first: %s",
			n, firstCorrupt(rep))
	} else {
		s.cleanPass.Add(1)
	}
	if n := rep.Warnings(); n > 0 {
		tel.Counter("scrub.findings.warn").Add(int64(n))
	}
	if s.cfg.OnReport != nil {
		s.cfg.OnReport(rep, gen)
	}
	return rep
}

func firstCorrupt(rep *fsck.Report) string {
	for _, p := range rep.Problems {
		if p.Severity == fsck.Corrupt {
			return p.String()
		}
	}
	return ""
}

// Passes returns the number of completed passes.
func (s *Scrubber) Passes() int64 {
	if s == nil {
		return 0
	}
	return s.passes.Load()
}

// CleanPasses returns the number of passes with no corruption findings.
func (s *Scrubber) CleanPasses() int64 {
	if s == nil {
		return 0
	}
	return s.cleanPass.Load()
}

// CorruptPasses returns the number of passes that found corruption.
func (s *Scrubber) CorruptPasses() int64 {
	if s == nil {
		return 0
	}
	return s.corrupt.Load()
}

// FreezeErrors returns the number of passes skipped because the frozen view
// could not be built.
func (s *Scrubber) FreezeErrors() int64 {
	if s == nil {
		return 0
	}
	return s.freezeErrs.Load()
}
