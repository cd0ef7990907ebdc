package core

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/difftest"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/model"
	"repro/internal/oplog"
)

func TestFencedDeviceBlocksAfterRaise(t *testing.T) {
	dev := blockdev.NewMem(16)
	var gen atomic.Uint64
	touched := newTouchedSet()
	f := newFence(dev, &gen, touched)
	buf := make([]byte, 4096)
	if err := f.WriteBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if gen.Load() != 1 {
		t.Errorf("write generation = %d after one write, want 1", gen.Load())
	}
	if touched.size() != 1 {
		t.Errorf("touched set size = %d after one write, want 1", touched.size())
	}
	if _, err := f.ReadBlock(1); err != nil {
		t.Fatal(err)
	}
	f.raise()
	if err := f.WriteBlock(1, buf); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("write after fence: %v", err)
	}
	if _, err := f.ReadBlock(1); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("read after fence: %v", err)
	}
	if err := f.Flush(); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("flush after fence: %v", err)
	}
	if f.NumBlocks() != 16 {
		t.Error("NumBlocks gated; it should not be")
	}
}

// TestFencedDeviceForwardsRuns drives a 16-block run through the fence: it
// reaches the device as one call each way, the written run lands every
// block in the touched set (the scoped check's soundness rests on it) and
// moves the write generation, and a raised fence rejects runs as it rejects
// single blocks, before the device sees them.
func TestFencedDeviceForwardsRuns(t *testing.T) {
	dev := blockdev.NewMem(64)
	var gen atomic.Uint64
	touched := newTouchedSet()
	f := newFence(dev, &gen, touched)
	run := func() []blockdev.Run {
		r := blockdev.Run{Blk: 8, Bufs: make([][]byte, 16)}
		for i := range r.Bufs {
			r.Bufs[i] = make([]byte, 4096)
		}
		return []blockdev.Run{r}
	}
	if err := f.WriteVec(run()); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadVec(run()); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats().Snapshot()
	if st.WriteCalls != 1 || st.Writes != 16 || st.ReadCalls != 1 || st.Reads != 16 {
		t.Errorf("device saw %+v, want one 16-block call each way", st)
	}
	if gen.Load() == 0 {
		t.Error("a written run did not move the write generation")
	}
	got := touched.snapshotAndReset()
	for blk := uint32(8); blk < 24; blk++ {
		if _, ok := got[blk]; !ok {
			t.Errorf("block %d of the written run missing from the touched set", blk)
		}
	}
	if len(got) != 16 {
		t.Errorf("touched set holds %d blocks, want the run's 16", len(got))
	}

	f.raise()
	if err := f.WriteVec(run()); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("run write after fence: %v", err)
	}
	if err := f.ReadVec(run()); !errors.Is(err, fserr.ErrIO) {
		t.Errorf("run read after fence: %v", err)
	}
	if after := dev.Stats().Snapshot(); after != st {
		t.Errorf("runs through a raised fence reached the device: %+v -> %+v", st, after)
	}
}

// TestAbandonedFrozenSyncCannotPersist is the fence's reason to exist: a
// sync frozen past the watchdog is abandoned; when it wakes up mid- or
// post-recovery it must not be able to write the device underneath the
// recovered filesystem. The recovered state must equal the specification.
func TestAbandonedFrozenSyncCannotPersist(t *testing.T) {
	reg := faultinject.NewRegistry(31)
	reg.Arm(&faultinject.Specimen{
		ID: "frozen-sync", Class: faultinject.Freeze,
		Deterministic: true, Op: "sync", Point: "entry",
		FreezeFor: 60 * time.Millisecond, MaxFires: 1,
	})
	fs, _, sb := newSupervised(t, Config{
		Base:     basefs.Options{Injector: reg},
		Watchdog: 10 * time.Millisecond,
	})
	m := model.New(sb)
	seq := []*oplog.Op{
		{Kind: oplog.KCreate, Path: "/a", Perm: 0o644},
		{Kind: oplog.KWrite, FD: 0, Off: 0, Data: []byte("payload-a")},
		{Kind: oplog.KSync}, // freezes; watchdog abandons; recovery runs
		{Kind: oplog.KCreate, Path: "/b", Perm: 0o644},
		{Kind: oplog.KWrite, FD: 1, Off: 0, Data: []byte("payload-b")},
		{Kind: oplog.KClose, FD: 0},
		{Kind: oplog.KClose, FD: 1},
		{Kind: oplog.KSync},
	}
	for _, rec := range seq {
		oracle := rec.Clone()
		_ = oplog.Apply(m, oracle)
		got := rec.Clone()
		_ = oplog.Apply(fs, got)
		for _, d := range difftest.CompareOutcome(got, oracle) {
			t.Errorf("discrepancy at %s: %s", rec, d)
		}
	}
	// Give the abandoned goroutine time to wake and bounce off the fence.
	time.Sleep(80 * time.Millisecond)
	st := fs.Stats()
	if st.Freezes != 1 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AppFailures != 0 {
		t.Errorf("app failures: %d", st.AppFailures)
	}
	gotState, err := difftest.DumpState(fs)
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := difftest.DumpState(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range difftest.CompareStates(gotState, wantState) {
		t.Errorf("state: %s", d)
	}
}

// TestWarnDuringSyncVetoesPersist pins the detection-before-persist
// behavior the soak test uncovered: a WARN emitted at the sync entry seam
// must abort the sync before any write-out, and recovery must reconstruct —
// not double-apply — the buffered operations.
func TestWarnDuringSyncVetoesPersist(t *testing.T) {
	reg := faultinject.NewRegistry(32)
	reg.Arm(&faultinject.Specimen{
		ID: "warn-in-sync", Class: faultinject.Warn,
		Deterministic: true, Op: "sync", Point: "entry", MaxFires: 1,
	})
	fs, _, sb := newSupervised(t, Config{
		Base:          basefs.Options{Injector: reg},
		EscalateWarns: true,
	})
	m := model.New(sb)
	seq := []*oplog.Op{
		{Kind: oplog.KMkdir, Path: "/d", Perm: 0o755},
		{Kind: oplog.KCreate, Path: "/d/f", Perm: 0o644},
		{Kind: oplog.KWrite, FD: 0, Off: 0, Data: []byte("buffered")},
		{Kind: oplog.KSync}, // WARN fires pre-persist; recovery; re-synced
		{Kind: oplog.KCreate, Path: "/d/g", Perm: 0o644},
		{Kind: oplog.KClose, FD: 0},
		{Kind: oplog.KClose, FD: 1},
	}
	for _, rec := range seq {
		oracle := rec.Clone()
		_ = oplog.Apply(m, oracle)
		got := rec.Clone()
		_ = oplog.Apply(fs, got)
		for _, d := range difftest.CompareOutcome(got, oracle) {
			t.Errorf("discrepancy at %s: %s", rec, d)
		}
	}
	st := fs.Stats()
	if st.WarnsEscalated != 1 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AppFailures != 0 {
		t.Errorf("app failures: %d", st.AppFailures)
	}
	gotState, err := difftest.DumpState(fs)
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := difftest.DumpState(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range difftest.CompareStates(gotState, wantState) {
		t.Errorf("state: %s", d)
	}
}

// TestFrozenProbeAnswered puts probes through the watchdog arm. A ReadAt and
// a Readdir frozen past the watchdog are abandoned, and recovery answers each
// with the specification's result. The abandoned goroutines wake after their
// callers have returned and write only their own copies of the call, which
// the race detector checks.
func TestFrozenProbeAnswered(t *testing.T) {
	const freeze = 60 * time.Millisecond
	reg := faultinject.NewRegistry(5)
	for _, op := range []string{"readat", "readdir"} {
		reg.Arm(&faultinject.Specimen{
			ID: "frozen-" + op, Class: faultinject.Freeze,
			Deterministic: true, Op: op, Point: "entry",
			FreezeFor: freeze, MaxFires: 1,
		})
	}
	fs, _, sb := newSupervised(t, Config{
		Base:     basefs.Options{Injector: reg},
		Watchdog: 10 * time.Millisecond,
	})
	m := model.New(sb)
	for _, impl := range []fsapi.FS{fs, m} {
		if err := impl.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		fd, err := impl.Create("/d/f", 0o644)
		if err != nil || fd != 0 {
			t.Fatalf("create = (%d, %v)", fd, err)
		}
		if _, err := impl.WriteAt(fd, 0, []byte("frozen, then answered")); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		got, err := fs.ReadAt(0, 3, 64)
		want, _ := m.ReadAt(0, 3, 64)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: ReadAt = (%q, %v), want %q", when, got, err, want)
		}
		ents, err := fs.Readdir("/d")
		wantEnts, _ := m.Readdir("/d")
		if err != nil || !reflect.DeepEqual(ents, wantEnts) {
			t.Errorf("%s: Readdir = (%v, %v), want %v", when, ents, err, wantEnts)
		}
	}
	check("frozen")
	st := fs.Stats()
	if st.Freezes != 2 || st.Recoveries != 2 || st.AppFailures != 0 {
		t.Fatalf("freezes %d, recoveries %d, app failures %d; want 2, 2, 0",
			st.Freezes, st.Recoveries, st.AppFailures)
	}
	// Let the abandoned goroutines wake and finish on the dead instance.
	time.Sleep(2 * freeze)
	check("after wake")
	if st := fs.Stats(); st.Freezes != 2 || st.Recoveries != 2 {
		t.Errorf("after wake: freezes %d, recoveries %d; want 2, 2", st.Freezes, st.Recoveries)
	}
}
