package torture

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/faultinject"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
)

// TestReducedTierDeterministic is the CI smoke contract: two runs from the
// same seed produce the identical case count, failure count, and signature
// set — and on a healthy tree, zero open signatures.
func TestReducedTierDeterministic(t *testing.T) {
	a, err := Run(ReducedTier(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ReducedTier(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cases != b.Cases {
		t.Errorf("case count not deterministic: %d vs %d", a.Cases, b.Cases)
	}
	if a.Failures != b.Failures {
		t.Errorf("failure count not deterministic: %d vs %d", a.Failures, b.Failures)
	}
	if !reflect.DeepEqual(a.Signatures(), b.Signatures()) {
		t.Errorf("signatures not deterministic:\n%v\nvs\n%v", a.Signatures(), b.Signatures())
	}
	if a.Cases < 400 {
		t.Errorf("reduced tier ran only %d cases, want >= 400", a.Cases)
	}
	for _, f := range a.Unique {
		t.Errorf("open signature: %s — %s", f.Signature(), f.Detail)
	}
}

// TestReducedTierDifferentSeedsDiffer guards against the seed being ignored:
// different roots must derive different workloads (case counts may coincide,
// but the derived unit seeds must not).
func TestReducedTierDifferentSeedsDiffer(t *testing.T) {
	c1, c2 := ReducedTier(1), ReducedTier(2)
	c1.fill()
	c2.fill()
	u1 := unitsOf(c1)
	u2 := unitsOf(c2)
	if len(u1) == 0 || len(u2) == 0 {
		t.Fatal("no units")
	}
	same := true
	for i := range u1 {
		if u1[i].Seed != u2[i].Seed {
			same = false
			break
		}
	}
	if same {
		t.Error("unit seeds identical across different campaign seeds")
	}
}

// TestFullTierCaseFloor asserts the exhaustive tier's scale: at least 5,000
// checked cases from a single seed, with zero open signatures.
func TestFullTierCaseFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("full tier skipped in -short mode")
	}
	r, err := Run(FullTier(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cases < 5000 {
		t.Errorf("full tier ran %d cases, want >= 5000", r.Cases)
	}
	for _, f := range r.Unique {
		t.Errorf("open signature: %s — %s", f.Signature(), f.Detail)
	}
	t.Logf("full tier: %d cases in %s (%.0f cases/sec)", r.Cases, r.Elapsed, r.CasesPerSec)
}

// TestTimeBudgetTruncates: an absurdly small budget must stop dispatch and
// mark the result truncated rather than hanging or erroring.
func TestTimeBudgetTruncates(t *testing.T) {
	cfg := ReducedTier(1)
	cfg.TimeBudget = time.Nanosecond
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated {
		t.Error("1ns budget did not truncate the run")
	}
}

// TestReproRoundTrip: a failure serializes to JSON and back without losing
// the fields that drive re-execution, and the version/class guards hold.
func TestReproRoundTrip(t *testing.T) {
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	prof := profileByName(t, "metaheavy")
	prelude, window := buildWorkload(prof, 12345, 2, sb)
	pl := newPlan(prelude, window, sb)
	f := &Failure{
		Class: ClassTorn, Profile: prof, Seed: 12345, WinLen: 2, Point: 7,
		Kind: "recover-error", Locus: "replay", Detail: "example",
		Shape: shapeOf(pl.window), Prelude: pl.prelude, Window: pl.window,
	}
	data, err := f.Repro().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r, err := UnmarshalRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Class != "torn" || r.Kind != f.Kind || r.Locus != f.Locus ||
		r.Seed != f.Seed || r.Point != f.Point ||
		len(r.Prelude) != len(pl.prelude) || len(r.Window) != len(pl.window) {
		t.Errorf("round trip lost fields: %+v", r)
	}
	for i, o := range r.Window {
		if o.Kind != pl.window[i].Kind {
			t.Errorf("window op %d kind %v, want %v", i, o.Kind, pl.window[i].Kind)
		}
	}

	if _, err := UnmarshalRepro([]byte(`{"version":99,"class":"torn"}`)); err == nil {
		t.Error("version 99 accepted")
	}
	if _, err := UnmarshalRepro([]byte(`{"version":1,"class":"nosuch"}`)); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestReproRunCleanOnHealthyTree: re-executing a well-formed repro against a
// tree without the bug returns nil — the property that makes a committed
// repro double as a regression test.
func TestReproRunCleanOnHealthyTree(t *testing.T) {
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	prof := profileByName(t, "soup")
	prelude, window := buildWorkload(prof, 999, 2, sb)
	pl := newPlan(prelude, window, sb)
	f := &Failure{
		Class: ClassTorn, Profile: prof, Seed: 999, WinLen: 2, Point: 3,
		Kind: "recover-error", Locus: "replay",
		Shape: shapeOf(pl.window), Prelude: pl.prelude, Window: pl.window,
	}
	data, err := f.Repro().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r, err := UnmarshalRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("healthy tree reproduced: %s", got)
	}
}

// TestSignatureNormalization: loci with embedded numbers (inodes, block
// numbers, generated file names) dedup together.
func TestSignatureNormalization(t *testing.T) {
	if got := normalizeLocus("/dir3/mail123456"); got != "/dirN/mailN" {
		t.Errorf("normalizeLocus = %q", got)
	}
	if got := normalizeLocus(""); got != "?" {
		t.Errorf("empty locus = %q", got)
	}
	a := &Failure{Class: ClassCrash, Kind: "fsck", Locus: "inode N"}
	b := &Failure{Class: ClassCrash, Kind: "fsck", Locus: "inode N"}
	if !a.matches(b) {
		t.Error("equal identity does not match")
	}
	b.Class = ClassTorn
	if a.matches(b) {
		t.Error("different class matches")
	}
	if a.matches(nil) {
		t.Error("nil matches")
	}
}

// TestShrinkKeepsNonReproducing: a failure whose signature the healthy tree
// cannot reproduce must come back unchanged (never "shrunk" into a different
// bug), within budget.
func TestShrinkKeepsNonReproducing(t *testing.T) {
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	prof := profileByName(t, "metaheavy")
	prelude, window := buildWorkload(prof, 4242, 3, sb)
	pl := newPlan(prelude, window, sb)
	f := &Failure{
		Class: ClassCrash, Profile: prof, Seed: 4242, WinLen: 3, Point: 1,
		Kind: "fsck", Locus: "never-happens",
		Shape: shapeOf(pl.window), Prelude: pl.prelude, Window: pl.window,
	}
	got, attempts, removed := shrinkFailure(f, sb, 6)
	if got != f {
		t.Error("non-reproducing failure was replaced")
	}
	if removed != 0 {
		t.Errorf("removed %d ops from a non-reproducing failure", removed)
	}
	if attempts > 6 {
		t.Errorf("attempts %d exceeded budget 6", attempts)
	}
}

// TestFaultCaseConfigRunsScopedCheckAndImageAbsorb pins what the campaign
// covers since its supervisor became the production engine: two faults in
// one mounted case, the second after a durable point, so the second recovery
// runs over a verified baseline. It must run the region-scoped check and
// install a 300-op gap through one AbsorbImage call, and the result must
// equal the specification.
func TestFaultCaseConfigRunsScopedCheckAndImageAbsorb(t *testing.T) {
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.NewMem(devBlocks)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: devInodes, JournalBlocks: devJournal}); err != nil {
		t.Fatal(err)
	}
	reg := faultinject.NewRegistry(1)
	fs, err := core.Mount(dev, faultCaseConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	m := model.New(sb)
	both := func(op *oplog.Op) {
		t.Helper()
		got, want := mustClone(op), mustClone(op)
		if err := safeOpApply(fs, got); err != nil {
			t.Fatal(err)
		}
		_ = oplog.Apply(m, want)
		if d := difftest.CompareOutcome(got, want); len(d) > 0 {
			t.Fatalf("%s: %s", op, d[0])
		}
	}
	crashNextMkdir := func() {
		reg.Arm(&faultinject.Specimen{
			ID: "two-faults", Class: faultinject.Crash, Deterministic: true, MaxFires: 1, Op: "mkdir",
		})
	}

	both(&oplog.Op{Kind: oplog.KCreate, Path: "/f", Perm: 0o644})
	crashNextMkdir()
	both(&oplog.Op{Kind: oplog.KMkdir, Path: "/first", Perm: 0o755})
	if st := fs.Stats(); st.Recoveries != 1 || st.FsckFull != 1 || st.FsckScoped != 0 {
		t.Fatalf("first fault: recoveries=%d full=%d scoped=%d, want 1/1/0", st.Recoveries, st.FsckFull, st.FsckScoped)
	}
	// A durable point puts the first gap on the device, so the second
	// recovery's scoped check has blocks the base wrote since the first to
	// cover.
	if err := syncBoth(fs, m); err != nil {
		t.Fatal(err)
	}
	const gap = 300
	for i := 0; i < gap; i++ {
		both(&oplog.Op{Kind: oplog.KWrite, FD: 0, Off: int64(i), Data: []byte{byte(i)}})
	}
	crashNextMkdir()
	both(&oplog.Op{Kind: oplog.KMkdir, Path: "/second", Perm: 0o755})

	st := fs.Stats()
	if st.Recoveries != 2 || st.Degradations != 0 || st.AppFailures != 0 {
		t.Fatalf("recoveries=%d degradations=%d appFailures=%d, want 2/0/0", st.Recoveries, st.Degradations, st.AppFailures)
	}
	if st.FsckScoped != 1 || st.FsckFull != 1 {
		t.Errorf("second fault: scoped=%d full=%d, want 1/1", st.FsckScoped, st.FsckFull)
	}
	if st.OpsReplayed < gap {
		t.Errorf("replayed %d ops, want the whole %d-op gap", st.OpsReplayed, gap)
	}
	if ph := st.Phases[1]; ph.Absorb <= 0 {
		t.Errorf("second hand-off: Absorb=%v, want the image absorbed on the recovering goroutine", ph.Absorb)
	}
	got, err := difftest.DumpState(fs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := difftest.DumpState(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range difftest.CompareStates(got, want) {
		t.Errorf("state: %s", d)
	}
}
