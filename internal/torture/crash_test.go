package torture

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/fsck"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
)

// TestCrashPointsInsideRuns gives the vectored write seam its own crash
// points. The window's fsync writes two 8-block runs home, one on each path
// that issues runs: the delayed allocation of a new file and the coalesced
// write-back of a full overwrite of a synced one. The enumeration must cut
// after every block of each run and check the torn variant of every block,
// the middle ones included, and every such image must recover, fsck clean
// and keep what the fsync and the final sync promised.
func TestCrashPointsInsideRuns(t *testing.T) {
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	const runBlocks = 8
	payload := func(fill byte) []byte {
		return bytes.Repeat([]byte{fill}, runBlocks*disklayout.BlockSize)
	}
	prelude := []*oplog.Op{
		{Kind: oplog.KCreate, Path: "/over", Perm: 0o644},
		{Kind: oplog.KWrite, FD: 0, Data: payload(0x11)},
	}
	window := []*oplog.Op{
		{Kind: oplog.KWrite, FD: 0, Data: payload(0x22)}, // overwrite: coalesced write-back
		{Kind: oplog.KCreate, Path: "/fresh", Perm: 0o644},
		{Kind: oplog.KWrite, FD: 1, Data: payload(0x33)}, // delayed allocation
		{Kind: oplog.KFsync, FD: 1},
	}
	pl := newPlan(prelude, window, sb)
	for _, o := range append(pl.prelude, pl.window...) {
		if o.Errno != 0 {
			t.Fatalf("oracle rejects %s", o)
		}
	}
	res, err := runCrashEnum(caseID{}, pl, sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.failures {
		t.Errorf("crash image failed: %s", f)
	}

	// Group the recorded writes by the device call that carried them: a run
	// is a call of runBlocks adjacent blocks, each its own crash point.
	calls := map[int64][]writeRec{}
	var order []int64
	for _, w := range res.writes {
		if _, seen := calls[w.call]; !seen {
			order = append(order, w.call)
		}
		calls[w.call] = append(calls[w.call], w)
	}
	runs := 0
	for _, c := range order {
		ws := calls[c]
		if len(ws) < 2 {
			continue
		}
		for i := 1; i < len(ws); i++ {
			if ws[i].blk != ws[i-1].blk+1 {
				t.Fatalf("call %d wrote blocks %d then %d: not one run", c, ws[i-1].blk, ws[i].blk)
			}
		}
		if len(ws) == runBlocks {
			runs++
		}
	}
	if runs != 2 {
		t.Errorf("found %d %d-block runs among %d recorded writes, want 2 (delayed allocation and coalesced overwrite)",
			runs, runBlocks, len(res.writes))
	}
	// One oracle case, then a torn image and a crash image per recorded
	// write: every block of every run, the middle ones included.
	if want := 1 + 2*len(res.writes); res.cases != want {
		t.Errorf("checked %d cases for %d recorded writes, want %d", res.cases, len(res.writes), want)
	}
}

// TestCrashPointsInsideForcedRound gives the op log's bound its crash points.
// A supervised filesystem syncs, then runs one op short of the bound; the
// next op fills the log and its caller runs a forced stable point. Every
// device write of that round is a crash point and a torn point. Each image
// must journal-recover, fsck clean and mount, and then hold the model's
// state at the explicit sync or at the forced round's watermark, never a mix
// of the two; only the bytes ordered mode leaves unsettled before the commit
// may differ.
func TestCrashPointsInsideForcedRound(t *testing.T) {
	sb, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.NewMem(devBlocks)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: devInodes, JournalBlocks: devJournal}); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(dev, faultCaseConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	m := model.New(sb)
	apply := func(o *oplog.Op) *oplog.Op {
		t.Helper()
		got, want := mustClone(o), mustClone(o)
		if err := safeOpApply(fs, got); err != nil {
			t.Fatal(err)
		}
		_ = oplog.Apply(m, want)
		if d := difftest.CompareOutcome(got, want); len(d) > 0 {
			t.Fatalf("outcome: %s", d[0])
		}
		return got
	}
	modelState := func() map[string]difftest.Entry {
		t.Helper()
		st, err := difftest.DumpState(m)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	apply(&oplog.Op{Kind: oplog.KMkdir, Path: "/d", Perm: 0o755})
	for _, p := range []string{"/d/a", "/d/b", "/d/c"} {
		fd := apply(&oplog.Op{Kind: oplog.KCreate, Path: p, Perm: 0o644}).RetFD
		apply(&oplog.Op{Kind: oplog.KWrite, FD: fd, Data: []byte("synced " + p)})
		apply(&oplog.Op{Kind: oplog.KClose, FD: fd})
	}
	if err := syncBoth(fs, m); err != nil {
		t.Fatal(err)
	}
	synced := modelState()

	// Up to one op short of the bound, with no sync: a new file, a rename,
	// and small overwrites through a held descriptor.
	fd := apply(&oplog.Op{Kind: oplog.KCreate, Path: "/d/new", Perm: 0o644}).RetFD
	apply(&oplog.Op{Kind: oplog.KWrite, FD: fd, Data: []byte("unsynced")})
	apply(&oplog.Op{Kind: oplog.KClose, FD: fd})
	apply(&oplog.Op{Kind: oplog.KRename, Path: "/d/a", Path2: "/d/a2"})
	held := apply(&oplog.Op{Kind: oplog.KOpen, Path: "/d/b"}).RetFD
	for i := 0; fs.LogLen() < oplog.MaxOps-1; i++ {
		apply(&oplog.Op{Kind: oplog.KWrite, FD: held, Off: int64(i%32) * 8, Data: bytes.Repeat([]byte{byte(i)}, 8)})
	}

	// The op that fills the log, with every device write recorded.
	base := dev.Snapshot()
	var (
		recMu sync.Mutex
		recs  []writeRec
	)
	dev.SetWriteHook(func(blk uint32) {
		if data, err := dev.ReadBlock(blk); err == nil {
			recMu.Lock()
			recs = append(recs, writeRec{blk: blk, data: data})
			recMu.Unlock()
		}
	})
	apply(&oplog.Op{Kind: oplog.KUnlink, Path: "/d/c"})
	dev.SetWriteHook(nil)
	if st := fs.Stats(); st.ForcedStablePoints != 1 || fs.LogLen() != 0 || len(recs) == 0 {
		t.Fatalf("forced round: %d forced stable points, log length %d, %d device writes; want 1, 0, > 0",
			st.ForcedStablePoints, fs.LogLen(), len(recs))
	}
	forced := modelState()

	// Ordered mode writes a round's data home before it commits the metadata
	// that points at it, so until the commit the bytes of a file the window
	// overwrote in place (/d/b) or unlinked (/d/c, whose freed block the same
	// round reallocates to /d/new) are not settled. Every crash image the
	// campaign checks follows the same rule. The metadata must still be the
	// synced state or the forced one, whole, and every other byte exact.
	unsettled := func(st map[string]difftest.Entry) map[string]difftest.Entry {
		out := make(map[string]difftest.Entry, len(st))
		for p, e := range st {
			if p == "/d/b" || p == "/d/c" {
				e.Hash = 0
			}
			out[p] = e
		}
		return out
	}

	// check reports which model state img holds after recovery, or fails.
	check := func(img *blockdev.Mem, what string, k int) string {
		t.Helper()
		if _, _, err := mkfs.Recover(img); err != nil {
			t.Errorf("%s point %d: journal recovery: %v", what, k, err)
			return ""
		}
		if rep := fsck.Check(img); !rep.Clean() {
			t.Errorf("%s point %d: fsck: %s", what, k, firstCorrupt(rep))
			return ""
		}
		cfs, err := basefs.Mount(img, basefs.Options{})
		if err != nil {
			t.Errorf("%s point %d: mount: %v", what, k, err)
			return ""
		}
		defer cfs.Kill()
		got, err := difftest.DumpState(cfs)
		if err != nil {
			t.Errorf("%s point %d: dump: %v", what, k, err)
			return ""
		}
		if len(difftest.CompareStates(unsettled(got), unsettled(synced))) == 0 {
			return "synced"
		}
		d := difftest.CompareStates(got, forced)
		if len(d) == 0 {
			return "forced"
		}
		t.Errorf("%s point %d: state is neither the synced nor the forced one: %s", what, k, d[0])
		return ""
	}

	seen := map[string]int{check(base.Snapshot(), "crash", 0): 1}
	img := base
	for k := 1; k <= len(recs); k++ {
		rec := recs[k-1]
		torn := img.Snapshot()
		if prev, err := torn.ReadBlock(rec.blk); err == nil {
			data := append([]byte(nil), rec.data[:disklayout.BlockSize/2]...)
			if err := torn.WriteBlock(rec.blk, append(data, prev[disklayout.BlockSize/2:]...)); err != nil {
				t.Fatal(err)
			}
			seen[check(torn, "torn", k)]++
		}
		if err := img.WriteBlock(rec.blk, rec.data); err != nil {
			t.Fatal(err)
		}
		seen[check(img.Snapshot(), "crash", k)]++
	}
	if seen["synced"] == 0 || seen["forced"] == 0 {
		t.Errorf("images per state over %d recorded writes: %v; want both states reached", len(recs), seen)
	}
	t.Logf("%d recorded writes; images per state: %v", len(recs), seen)
}
