package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/difftest"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
	"repro/internal/telemetry"
)

// mutatingCalls counts the application calls that OpsExecuted counts when
// runAgainstModel drives trace: every mutating op, plus the Open and Close
// with which its final state dump reads each of the trace's regular files.
func mutatingCalls(trace []*oplog.Op, files int) int64 {
	n := int64(2 * files)
	for _, o := range trace {
		if o.Kind.Mutating() {
			n++
		}
	}
	return n
}

// TestLogBoundForcesStablePoint drives three times the op log's bound with
// no sync: open/close pairs and small writes from one goroutine. The log must
// never exceed the bound, each crossing must force a stable point that no
// application call is charged for, and a deterministic fault planted
// afterwards must still be masked model-exactly, replaying at most the bound.
func TestLogBoundForcesStablePoint(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(trigger(faultinject.Crash, "create", true))
	fs, _, sb := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})

	trace := []*oplog.Op{
		{Kind: oplog.KMkdir, Path: "/d", Perm: 0o755},
		{Kind: oplog.KCreate, Path: "/d/f", Perm: 0o644}, // fd 0, held
	}
	for i := 0; i < oplog.MaxOps; i++ {
		trace = append(trace,
			&oplog.Op{Kind: oplog.KOpen, Path: "/d/f"}, // fd 1
			&oplog.Op{Kind: oplog.KWrite, FD: 1, Off: int64(i%64) * 16, Data: bytes.Repeat([]byte{byte(i)}, 16)},
			&oplog.Op{Kind: oplog.KClose, FD: 1})
	}
	trace = append(trace,
		&oplog.Op{Kind: oplog.KCreate, Path: "/d/trigger-after-bound", Perm: 0o644}, // fd 1
		&oplog.Op{Kind: oplog.KWrite, FD: 1, Data: []byte("post-fault data")},
		&oplog.Op{Kind: oplog.KClose, FD: 1},
		&oplog.Op{Kind: oplog.KClose, FD: 0})

	outcome, state := runAgainstModel(t, fs, sb, trace)
	for _, d := range outcome {
		t.Errorf("outcome: %s", d)
	}
	for _, d := range state {
		t.Errorf("state: %s", d)
	}
	st := fs.Stats()
	if n := fs.LogLen(); n > oplog.MaxOps {
		t.Errorf("LogLen = %d, above the bound %d", n, oplog.MaxOps)
	}
	if st.PeakLogLen > oplog.MaxOps {
		t.Errorf("PeakLogLen = %d, above the bound %d", st.PeakLogLen, oplog.MaxOps)
	}
	if st.ForcedStablePoints < 2 {
		t.Errorf("ForcedStablePoints = %d after %d appends, want >= 2", st.ForcedStablePoints, st.OpsRecorded)
	}
	if want := mutatingCalls(trace, 2); st.OpsExecuted != want {
		t.Errorf("OpsExecuted = %d, want %d application calls: a forced round was counted", st.OpsExecuted, want)
	}
	if st.Recoveries != 1 || st.AppFailures != 0 {
		t.Errorf("planted fault: %d recoveries, %d app failures; want 1 and 0", st.Recoveries, st.AppFailures)
	}
	if st.OpsReplayed > oplog.MaxOps {
		t.Errorf("OpsReplayed = %d, above the bound %d", st.OpsReplayed, oplog.MaxOps)
	}
}

// TestLogBoundForcesStablePointOnBytes crosses the byte bound with a few
// multi-MiB writes and no sync, far below the op-count bound.
func TestLogBoundForcesStablePointOnBytes(t *testing.T) {
	sink := telemetry.New()
	fs, _, sb := newSupervised(t, Config{Telemetry: sink})
	const chunk = 3 << 20
	trace := []*oplog.Op{{Kind: oplog.KCreate, Path: "/big", Perm: 0o644}}
	for i := 0; i < 3; i++ {
		trace = append(trace, &oplog.Op{Kind: oplog.KWrite, FD: 0, Off: int64(i) * chunk,
			Data: bytes.Repeat([]byte{byte(0x40 + i)}, chunk)})
	}
	trace = append(trace, &oplog.Op{Kind: oplog.KClose, FD: 0})

	outcome, state := runAgainstModel(t, fs, sb, trace)
	for _, d := range append(outcome, state...) {
		t.Errorf("%s", d)
	}
	if st := fs.Stats(); st.ForcedStablePoints != 1 {
		t.Errorf("ForcedStablePoints = %d after %d MiB of writes, want 1", st.ForcedStablePoints, 3*chunk>>20)
	}
	if n := sink.Counter("oplog.forced_stable_points").Value(); n != 1 {
		t.Errorf("oplog.forced_stable_points = %d, want 1", n)
	}
	if b := fs.log.Bytes(); b != 0 {
		t.Errorf("log holds %d payload bytes after the forced round, want 0", b)
	}
}

// TestForcedRoundFaultRecovered plants a crash on the sync seam, which the
// first forced round hits. The fault is recovered like any sync's: the
// shadow replays the log, the base re-runs the sync after the hand-off, and
// the round still ends in a stable point. The application calls never see it.
func TestForcedRoundFaultRecovered(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(&faultinject.Specimen{ID: "forced-sync-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "sync", Point: "entry", MaxFires: 1})
	fs, _, sb := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})

	trace := []*oplog.Op{{Kind: oplog.KCreate, Path: "/f", Perm: 0o644}}
	for i := 0; len(trace) < oplog.MaxOps+8; i++ {
		trace = append(trace, &oplog.Op{Kind: oplog.KWrite, FD: 0, Off: int64(i%32) * 8, Data: []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}})
	}
	outcome, state := runAgainstModel(t, fs, sb, trace)
	for _, d := range append(outcome, state...) {
		t.Errorf("%s", d)
	}
	st := fs.Stats()
	if st.Recoveries != 1 || st.PanicsCaught != 1 || st.AppFailures != 0 || st.Degradations != 0 {
		t.Errorf("stats = %+v, want one contained panic, recovered without failures", st)
	}
	// The 8 writes after the crossing, and the state dump's Open and Close.
	if st.ForcedStablePoints != 1 || fs.LogLen() != 10 {
		t.Errorf("ForcedStablePoints = %d, LogLen = %d; want 1 and 10", st.ForcedStablePoints, fs.LogLen())
	}
	if want := mutatingCalls(trace, 1); st.OpsExecuted != want {
		t.Errorf("OpsExecuted = %d, want %d", st.OpsExecuted, want)
	}
}

// hammerScript is one goroutine's share of TestLogBoundForcedRoundsRace: a
// fixed sequence of namespace ops and writes confined to its own directory,
// so the final state does not depend on how the goroutines interleave.
func hammerScript(fs fsapi.FS, w, iters int) error {
	dir := fmt.Sprintf("/h%d", w)
	if err := fs.Mkdir(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		p := fmt.Sprintf("%s/f%d", dir, i%8)
		q := fmt.Sprintf("%s/g%d", dir, i%8)
		fd, err := fs.Create(p, 0o644)
		if err != nil {
			return fmt.Errorf("create %s: %w", p, err)
		}
		if _, err := fs.WriteAt(fd, 0, bytes.Repeat([]byte{byte(w), byte(i)}, 32)); err != nil {
			return fmt.Errorf("write %s: %w", p, err)
		}
		if err := fs.Close(fd); err != nil {
			return err
		}
		if err := fs.Rename(p, q); err != nil { // replaces the previous q
			return fmt.Errorf("rename %s: %w", p, err)
		}
		if fd, err = fs.Open(q); err != nil {
			return fmt.Errorf("open %s: %w", q, err)
		}
		if _, err := fs.WriteAt(fd, 64, []byte{byte(i)}); err != nil {
			return fmt.Errorf("write %s: %w", q, err)
		}
		if err := fs.Close(fd); err != nil {
			return err
		}
		if i%5 == 4 {
			if err := fs.Truncate(q, 16); err != nil {
				return fmt.Errorf("truncate %s: %w", q, err)
			}
		}
	}
	return nil
}

// interleavingFree drops what a state dump records about the order in which
// concurrent goroutines ran: inode numbers, logical timestamps, and the
// root's listing order.
func interleavingFree(state map[string]difftest.Entry) map[string]difftest.Entry {
	out := make(map[string]difftest.Entry, len(state))
	for p, e := range state {
		e.Ino, e.Mtime, e.Ctime = 0, 0, 0
		if p == "/" {
			e.Listing = ""
		}
		out[p] = e
	}
	return out
}

// TestLogBoundForcedRoundsRace crosses the bound from four goroutines running
// namespace ops and writes, with one deterministic fault planted mid-run, so
// forced rounds interleave with concurrent appends, truncations and a
// recovery. Run with -race. After Unmount the image must check clean and
// hold exactly what the model holds after the same scripts run one by one.
func TestLogBoundForcedRoundsRace(t *testing.T) {
	const workers, iters = 4, 400
	reg := faultinject.NewRegistry(5)
	reg.Arm(&faultinject.Specimen{ID: "hammer-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "rename", Point: "entry", AfterN: workers * iters / 2, MaxFires: 1})
	fs, dev, sb := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := hammerScript(fs, w, iters); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	st := fs.Stats()
	if st.ForcedStablePoints < 2 || st.Recoveries != 1 || st.AppFailures != 0 {
		t.Errorf("stats = %+v, want >= 2 forced stable points and one masked fault", st)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if rep := fsck.Check(dev); !rep.Clean() {
		for _, p := range rep.Problems {
			t.Errorf("fsck: %s", p)
		}
	}

	m := model.New(sb)
	for w := 0; w < workers; w++ {
		if err := hammerScript(m, w, iters); err != nil {
			t.Fatalf("model worker %d: %v", w, err)
		}
	}
	want, err := difftest.DumpState(m)
	if err != nil {
		t.Fatal(err)
	}
	remount, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remount.Kill()
	got, err := difftest.DumpState(remount)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range difftest.CompareStates(interleavingFree(got), interleavingFree(want)) {
		t.Errorf("state: %s", d)
	}
}

// TestSupervisedHitPathAllocs pins the supervisor's envelope at zero
// allocations of its own: on a cached file, each call under Config{} (no
// watchdog) allocates no more than the same call on a bare base. The call
// record stays on the facade's stack, an op is recorded by value into the
// log's segment, and a probe takes no closure.
func TestSupervisedHitPathAllocs(t *testing.T) {
	sup, _, _ := newSupervised(t, Config{})
	dev := blockdev.NewMem(16384)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 1024, JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	bare, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bare.Kill)

	type calls struct {
		name string
		run  func(fsapi.FS, fsapi.FD)
	}
	cases := []calls{
		{"Stat", func(fs fsapi.FS, _ fsapi.FD) { _, _ = fs.Stat("/d/f") }},
		{"Fstat", func(fs fsapi.FS, fd fsapi.FD) { _, _ = fs.Fstat(fd) }},
		{"ReadAt", func(fs fsapi.FS, fd fsapi.FD) { _, _ = fs.ReadAt(fd, 0, 64) }},
		{"Readdir", func(fs fsapi.FS, _ fsapi.FD) { _, _ = fs.Readdir("/d") }},
		{"Open+Close", func(fs fsapi.FS, _ fsapi.FD) {
			fd, _ := fs.Open("/d/f")
			_ = fs.Close(fd)
		}},
	}
	measure := func(fs fsapi.FS) []float64 {
		if err := fs.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		fd, err := fs.Create("/d/f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(fd, 0, bytes.Repeat([]byte{7}, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(cases))
		for i, c := range cases {
			c.run(fs, fd) // warm every cache the call touches
			out[i] = testing.AllocsPerRun(200, func() { c.run(fs, fd) })
		}
		return out
	}
	got, want := measure(sup), measure(bare)
	for i, c := range cases {
		t.Logf("%-10s supervised %v, bare %v", c.name, got[i], want[i])
		if got[i] > want[i] {
			t.Errorf("supervised %s allocates %v times, bare base %v", c.name, got[i], want[i])
		}
	}
}
