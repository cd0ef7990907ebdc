package volmgr

import (
	"testing"
	"time"
)

// TestSharedScrubScheduler: volumes mounted under a manager with scrub
// scheduling get externally driven passes — no private tickers — and one
// ScrubAll sweep runs exactly one pass per open volume through the shared
// worker pool.
func TestSharedScrubScheduler(t *testing.T) {
	// A long interval keeps the background loop quiet; the test drives
	// sweeps explicitly.
	m := newManager(t, Config{ScrubInterval: time.Hour})
	a, err := m.Create("a", smallVol())
	if err != nil {
		t.Fatalf("Create a: %v", err)
	}
	b, err := m.Create("b", smallVol())
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}
	writeFile(t, a, "/f", []byte("scrub me"))
	if err := a.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	if ran := m.ScrubAll(); ran != 2 {
		t.Fatalf("ScrubAll ran %d passes, want 2", ran)
	}
	if got := a.Stats().ScrubPasses; got != 1 {
		t.Fatalf("volume a scrub passes = %d, want 1", got)
	}
	if got := b.Stats().ScrubPasses; got != 1 {
		t.Fatalf("volume b scrub passes = %d, want 1", got)
	}
	if got := m.Telemetry().Snapshot().Counters["volmgr.scrub.passes"]; got != 2 {
		t.Fatalf("fleet scrub passes = %d, want 2", got)
	}

	// A closed volume is skipped, not an error.
	if err := m.Close("b"); err != nil {
		t.Fatalf("Close b: %v", err)
	}
	if ran := m.ScrubAll(); ran != 1 {
		t.Fatalf("ScrubAll with one closed volume ran %d, want 1", ran)
	}
	// Clean passes are visible in the per-volume scrub telemetry.
	if got := a.Telemetry().Snapshot().Counters["scrub.passes"]; got != 2 {
		t.Fatalf("volume a scrub.passes counter = %d, want 2", got)
	}
}
