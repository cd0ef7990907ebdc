package torture

import (
	"bytes"
	"testing"

	"repro/internal/disklayout"
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
