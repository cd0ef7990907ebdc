package main

import (
	"fmt"
	"time"

	"repro/internal/basefs"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fsck"
	"repro/internal/model"
)

// replay re-derives on fs the state a client's run left behind: set-up ops,
// every whole lap, the partial lap, then the closes of the epilogue. Calls
// that change nothing are skipped, which is what makes replaying millions of
// reads affordable.
func replay(fs fsapi.FS, c *client) {
	var fds fdTable
	apply := func(ops []op) {
		for i := range ops {
			if o := &ops[i]; !o.kind.readOnly() {
				got, _ := call(fs, c.t, o, fds.arg(o))
				fds.note(o, got)
			}
		}
	}
	apply(c.t.pre)
	for l := 0; l < c.laps; l++ {
		apply(c.t.lap)
	}
	apply(c.t.lap[:c.pos])
	for _, fd := range fds {
		if fd >= 0 {
			_ = fs.Close(fd) // the epilogue's close; the run already checked its outcome
		}
	}
}

// dump walks a filesystem into its canonical state. Where clients shared
// the filesystem, inode numbers and the logical clock depend on how their
// calls interleaved, so those fields are left out of the comparison.
func dump(fs fsapi.FS, shared bool) (map[string]difftest.Entry, error) {
	st, err := difftest.DumpState(fs)
	if err != nil {
		return nil, err
	}
	if shared {
		for p, e := range st {
			e.Ino, e.Mtime, e.Ctime = 0, 0, 0
			st[p] = e
		}
	}
	return st, nil
}

// gate is the correctness check one pass must clear. Its violations are
// reported together; any of them fails the benchmark.
type gate struct {
	violations []string
	fsckTime   time.Duration // fsck.Check over every final image
}

func (g *gate) fail(format string, args ...any) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

// check runs the gate on a finished pass of the system under test. The rig
// is shut down by it.
//
//   - no call's outcome differed from the oracle or surfaced a fault;
//   - every write acknowledged by the final Sync is durable: a snapshot of
//     the device taken without unmounting, mounted fresh, dumps to the same
//     state as the model (the snapshot holds only flushed bytes);
//   - the storm recovered exactly once per planted fault, never degraded,
//     and surfaced no failure;
//   - after a clean unmount every final image passes fsck.
func check(w *workload, sb *disklayout.Superblock, r *rig, p *pass) *gate {
	g := &gate{}
	if p.failed != 0 {
		for _, c := range p.clients {
			if c.firstBad != "" {
				g.fail("%d of %d calls differ from the oracle, first: %s", p.failed, p.ops, c.firstBad)
				break
			}
		}
	}
	for i, mem := range r.mems {
		m := model.New(sb)
		if r.shared {
			for _, c := range p.clients {
				replay(m, c)
			}
		} else {
			replay(m, p.clients[i])
		}
		want, err := dump(m, r.shared)
		if err != nil {
			g.fail("model dump: %v", err)
			continue
		}
		fresh, err := basefs.Mount(mem.Snapshot(), basefs.Options{})
		if err != nil {
			g.fail("volume %d: mounting the post-sync snapshot: %v", i, err)
			continue
		}
		got, err := dump(fresh, r.shared)
		fresh.Kill()
		if err != nil {
			g.fail("volume %d: dumping the post-sync snapshot: %v", i, err)
			continue
		}
		if disc := difftest.CompareStates(got, want); len(disc) != 0 {
			g.fail("volume %d: %d paths differ between the post-sync snapshot and the model, first: %s",
				i, len(disc), disc[0])
		}
	}
	if w.plantEvery > 0 {
		st := r.sups[0].Stats()
		if st.Recoveries != p.planted || st.Degradations != 0 || st.AppFailures != 0 {
			g.fail("storm: %d faults planted, %d recoveries, %d degradations, %d app failures",
				p.planted, st.Recoveries, st.Degradations, st.AppFailures)
		}
	}
	if err := r.unmount(); err != nil {
		g.fail("unmount: %v", err)
	}
	for i, mem := range r.mems {
		t0 := time.Now()
		rep := fsck.Check(mem)
		g.fsckTime += time.Since(t0)
		if rep.Unreadable || !rep.Clean() {
			g.fail("volume %d: fsck of the final image: %d corrupt findings, unreadable=%v",
				i, rep.CorruptCount(), rep.Unreadable)
		}
	}
	return g
}
