package torture

import (
	"fmt"
	"sync"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
)

// writeRec is one recorded block write during the crash window: the block
// number, the post-write content read back synchronously (the base runs a
// single queue worker during enumeration, so read-back is exact), and the
// device call that carried it. Every block of a multi-block run is its own
// record, so the enumeration cuts between the blocks of one call.
type writeRec struct {
	blk  uint32
	data []byte
	call int64
}

// fileExpect is what a durability boundary promises about one file.
type fileExpect struct {
	size int64
	hash uint32
}

// durBoundary is a point in the write log after which a set of files is
// guaranteed durable: the prelude sync (at=0), each completed window fsync
// or sync, and the final sync. Every crash image containing at least `at`
// window writes must present every file in `files` intact.
type durBoundary struct {
	at    int
	label string
	files map[string]fileExpect
}

// filesOf extracts the regular files from a model state dump.
func filesOf(state map[string]difftest.Entry) map[string]fileExpect {
	out := make(map[string]fileExpect)
	for p, e := range state {
		if e.Type == disklayout.TypeFile {
			out[p] = fileExpect{size: e.Size, hash: e.Hash}
		}
	}
	return out
}

// strictFiles returns the regular files in state that the touched predicate
// reaches neither by path nor by inode — the set a durability boundary may
// hold the recovered image to. The inode pass matters for hardlinks: a write
// through one name changes the content seen through every other name of the
// same inode, so a path-only exclusion would demand stability from a file
// the window legitimately mutated.
func strictFiles(state map[string]difftest.Entry, touched func(string) bool) map[string]fileExpect {
	aliased := make(map[uint32]bool)
	for p, e := range state {
		if e.Type == disklayout.TypeFile && touched(p) {
			aliased[e.Ino] = true
		}
	}
	out := make(map[string]fileExpect)
	for p, e := range state {
		if e.Type != disklayout.TypeFile || touched(p) || aliased[e.Ino] {
			continue
		}
		out[p] = fileExpect{size: e.Size, hash: e.Hash}
	}
	return out
}

// laterTouches reports whether any window op after index i mutates path.
func laterTouches(pl *plan, i int, path string) bool {
	for j := i + 1; j < len(pl.window); j++ {
		o := pl.window[j]
		switch o.Kind {
		case oplog.KMkdir, oplog.KRmdir, oplog.KCreate, oplog.KUnlink,
			oplog.KSymlink, oplog.KTruncate, oplog.KSetPerm:
			if o.Path == path {
				return true
			}
		case oplog.KRename, oplog.KLink:
			if o.Path == path || o.Path2 == path {
				return true
			}
		case oplog.KWrite:
			if p, ok := pl.windowFDPath(j, o.FD); ok && p == path {
				return true
			}
		}
	}
	return false
}

// runCrashEnum executes one unit's window on a recording device and checks
// every crash point, every torn point, and the no-fault oracle control.
func runCrashEnum(id caseID, pl *plan, sb *disklayout.Superblock) (unitResult, error) {
	var res unitResult
	fail := func(class Class, point int, kind, locus, detail string) {
		res.failures = append(res.failures, &Failure{
			Class: class, Profile: id.profile, Seed: id.seed, WinLen: id.winLen,
			Point: point, Kind: kind, Locus: normalizeLocus(locus), Detail: detail,
			Shape: shapeOf(pl.window), Prelude: pl.prelude, Window: pl.window,
		})
	}

	dev := blockdev.NewMem(devBlocks)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: devInodes, JournalBlocks: devJournal}); err != nil {
		return res, fmt.Errorf("format: %w", err)
	}
	fs, err := basefs.Mount(dev, basefs.Options{QueueWorkers: 1, QueueDepth: 1})
	if err != nil {
		return res, fmt.Errorf("mount: %w", err)
	}
	mounted := true
	defer func() {
		if mounted {
			fs.Kill()
		}
	}()
	m := model.New(sb)

	// Prelude: both sides execute the same sequence; a divergence here means
	// the base disagrees with the model before any fault is injected, which
	// is an oracle-class finding on its own.
	for _, oracle := range pl.prelude {
		got := oracle.Clone()
		got.Errno, got.RetFD, got.RetIno, got.RetN, got.RetData = 0, 0, 0, 0, nil
		if err := safeOpApply(fs, got); err != nil {
			res.cases++
			fail(ClassOracle, 0, "checker-error", "prelude", err.Error())
			return res, nil
		}
		_ = oplog.Apply(m, mustClone(oracle))
		if d := difftest.CompareOutcome(got, oracle); len(d) > 0 {
			res.cases++
			fail(ClassOracle, 0, "outcome-divergence", "prelude/"+oracle.Kind.String(), d[0].String())
			return res, nil
		}
	}
	if err := syncBoth(fs, m); err != nil {
		res.cases++
		fail(ClassOracle, 0, "checker-error", "prelude-sync", err.Error())
		return res, nil
	}

	preludeState, err := difftest.DumpState(m)
	if err != nil {
		return res, fmt.Errorf("model dump: %w", err)
	}
	bounds := []durBoundary{{at: 0, label: "prelude-sync",
		files: strictFiles(preludeState, pl.isTouched)}}

	// Record every block write from here on: window ops, their fsyncs, the
	// final sync, and the unmount's checkpoint are all persistence points.
	base := dev.Snapshot()
	var (
		recMu sync.Mutex
		recs  []writeRec
	)
	dev.SetWriteHook(func(blk uint32) {
		data, rerr := dev.ReadBlock(blk)
		if rerr != nil {
			return
		}
		recMu.Lock()
		recs = append(recs, writeRec{blk: blk, data: data, call: dev.Stats().WriteCalls.Load()})
		recMu.Unlock()
	})
	recCount := func() int {
		recMu.Lock()
		defer recMu.Unlock()
		return len(recs)
	}

	// Window, with live outcome comparison and durability-boundary capture.
	var outcomeDisc []difftest.Discrepancy
	for i, oracle := range pl.window {
		got := oracle.Clone()
		got.Errno, got.RetFD, got.RetIno, got.RetN, got.RetData = 0, 0, 0, 0, nil
		if err := safeOpApply(fs, got); err != nil {
			res.cases++
			fail(ClassOracle, i, "checker-error", "window/"+oracle.Kind.String(), err.Error())
			return res, nil
		}
		_ = oplog.Apply(m, mustClone(oracle))
		outcomeDisc = append(outcomeDisc, difftest.CompareOutcome(got, oracle)...)

		laterTouched := func(p string) bool { return windowTouchesAfter(pl, i, p) }
		switch {
		case oracle.Kind == oplog.KFsync && oracle.Errno == 0:
			path, ok := pl.windowFDPath(i, oracle.FD)
			if !ok {
				break
			}
			st, err := difftest.DumpState(m)
			if err != nil {
				break
			}
			if fe, ok := strictFiles(st, laterTouched)[path]; ok {
				bounds = append(bounds, durBoundary{
					at:    recCount(),
					label: "fsync:" + path,
					files: map[string]fileExpect{path: fe},
				})
			}
		case oracle.Kind == oplog.KSync && oracle.Errno == 0:
			st, err := difftest.DumpState(m)
			if err != nil {
				break
			}
			bounds = append(bounds, durBoundary{at: recCount(), label: "window-sync",
				files: strictFiles(st, laterTouched)})
		}
	}

	// Final sync: after it completes, the whole model state is durable.
	if err := syncBoth(fs, m); err != nil {
		res.cases++
		fail(ClassOracle, len(pl.window), "checker-error", "final-sync", err.Error())
		return res, nil
	}
	finalModelState, err := difftest.DumpState(m)
	if err != nil {
		return res, fmt.Errorf("model dump: %w", err)
	}
	bounds = append(bounds, durBoundary{at: recCount(), label: "final-sync", files: filesOf(finalModelState)})

	// Oracle control case: the live post-window state must match the model.
	res.cases++
	if len(outcomeDisc) > 0 {
		fail(ClassOracle, 0, "outcome-divergence",
			outcomeDisc[0].Field, outcomeDisc[0].String())
	} else {
		liveState, err := difftest.DumpState(fs)
		if err != nil {
			fail(ClassOracle, 0, "checker-error", "live-walk", err.Error())
		} else if d := difftest.CompareStates(liveState, finalModelState); len(d) > 0 {
			fail(ClassOracle, 0, "state-divergence", d[0].Field, d[0].String())
		}
	}

	// Unmount is recorded too: its checkpoint writes are crash points.
	mounted = false
	if err := fs.Unmount(); err != nil {
		fail(ClassOracle, 0, "unmount-error", "unmount", err.Error())
	}
	dev.SetWriteHook(nil)

	// Enumerate crash and torn images. img carries base + recs[:k] as k
	// advances; each checked image is an isolated snapshot because recovery
	// mutates it.
	res.writes = recs
	img := base
	for k := 1; k <= len(recs); k++ {
		rec := recs[k-1]

		// Torn point k: k-1 complete writes plus the first half of write k.
		res.cases++
		tornImg := img.Snapshot()
		prev, rerr := tornImg.ReadBlock(rec.blk)
		if rerr == nil {
			tornData := make([]byte, disklayout.BlockSize)
			copy(tornData, rec.data)
			copy(tornData[disklayout.BlockSize/2:], prev[disklayout.BlockSize/2:])
			if err := tornImg.WriteBlock(rec.blk, tornData); err == nil {
				if kind, locus, detail := checkImage(tornImg, bounds, k-1); kind != "" {
					fail(ClassTorn, k, kind, locus, detail)
				}
			}
		}

		// Crash point k: exactly k complete writes.
		if err := img.WriteBlock(rec.blk, rec.data); err != nil {
			return res, fmt.Errorf("replay write: %w", err)
		}
		res.cases++
		if kind, locus, detail := checkImage(img.Snapshot(), bounds, k); kind != "" {
			fail(ClassCrash, k, kind, locus, detail)
		}
	}
	return res, nil
}

// windowTouchesAfter reports whether any window op at index > i mutates path
// (directly or through an ancestor directory).
func windowTouchesAfter(pl *plan, i int, path string) bool {
	if laterTouches(pl, i, path) {
		return true
	}
	for j := i + 1; j < len(pl.window); j++ {
		o := pl.window[j]
		for _, p := range []string{o.Path, o.Path2} {
			if p != "" && len(path) > len(p) && path[:len(p)] == p && path[len(p)] == '/' {
				switch o.Kind {
				case oplog.KRename, oplog.KRmdir:
					return true
				}
			}
		}
	}
	return false
}

// checkImage verifies one crash image: journal recovery must succeed, fsck
// must come back clean, the image must mount, and every durability boundary
// at or before the crash point must hold. Returns ("", "", "") when the
// image passes.
func checkImage(img *blockdev.Mem, bounds []durBoundary, k int) (kind, locus, detail string) {
	if _, _, err := mkfs.Recover(img); err != nil {
		return "recover-error", "replay", err.Error()
	}
	rep := fsck.Check(img)
	if !rep.Clean() {
		p := firstCorrupt(rep)
		return "fsck", p.Where, p.String()
	}
	cfs, err := basefs.Mount(img, basefs.Options{QueueWorkers: 1, QueueDepth: 1})
	if err != nil {
		return "mount-error", "mount", err.Error()
	}
	defer cfs.Kill()
	for _, b := range bounds {
		if b.at > k {
			continue
		}
		for path, fe := range b.files {
			st, err := cfs.Stat(path)
			if err != nil {
				return "durability-loss", "missing",
					fmt.Sprintf("%s promised by %s: stat: %v", path, b.label, err)
			}
			if st.Size != fe.size {
				return "durability-loss", "size",
					fmt.Sprintf("%s promised by %s: size %d, want %d", path, b.label, st.Size, fe.size)
			}
			data, err := readAll(cfs, path, st.Size)
			if err != nil {
				return "durability-loss", "read",
					fmt.Sprintf("%s promised by %s: read: %v", path, b.label, err)
			}
			if disklayout.Checksum(data) != fe.hash {
				return "durability-corrupt", "content",
					fmt.Sprintf("%s promised by %s: content hash mismatch", path, b.label)
			}
		}
	}
	return "", "", ""
}

// firstCorrupt returns the first corruption-grade problem (or the first
// problem of any severity when none is corruption-grade).
func firstCorrupt(rep *fsck.Report) fsck.Problem {
	for _, p := range rep.Problems {
		if p.Severity == fsck.Corrupt {
			return p
		}
	}
	if len(rep.Problems) > 0 {
		return rep.Problems[0]
	}
	return fsck.Problem{Where: "image", What: "unclean report with no problems"}
}

// readAll reads a whole file through the public API.
func readAll(fs *basefs.FS, path string, size int64) ([]byte, error) {
	fd, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer fs.Close(fd)
	var out []byte
	for off := int64(0); off < size; off += 1 << 16 {
		chunk, err := fs.ReadAt(fd, off, 1<<16)
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			break
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// safeOpApply applies one op with panic containment, so a base-filesystem
// panic surfaces as a checker finding instead of killing the campaign.
func safeOpApply(fs fsapi.FS, op *oplog.Op) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("torture: panic applying %s: %v", op, p)
		}
	}()
	_ = oplog.Apply(fs, op)
	return nil
}

// mustClone clones an oracle op for model application (Apply mutates outcome
// fields; the plan's oracle copies must stay pristine).
func mustClone(o *oplog.Op) *oplog.Op {
	c := o.Clone()
	c.Errno, c.RetFD, c.RetIno, c.RetN, c.RetData = 0, 0, 0, 0, nil
	return c
}

// syncBoth issues a Sync through both the implementation and the model so
// their logical clocks stay aligned.
func syncBoth(fs fsapi.FS, m *model.Model) error {
	op := &oplog.Op{Kind: oplog.KSync}
	if err := safeOpApply(fs, op); err != nil {
		return err
	}
	if op.Errno != 0 {
		return fmt.Errorf("sync failed: errno %d", op.Errno)
	}
	_ = oplog.Apply(m, &oplog.Op{Kind: oplog.KSync})
	return nil
}
