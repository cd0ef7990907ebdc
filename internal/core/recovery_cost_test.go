package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/mkfs"
	"repro/internal/oplog"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// plantTwoFaults arms one deterministic crash on mkdir of each of /boomA and
// /boomB. The first recovery after a mount checks the whole image and
// establishes the scoped-check baseline; the second is the steady-state
// recovery the cost tests below measure.
func plantTwoFaults(seed int64) *faultinject.Registry {
	reg := faultinject.NewRegistry(seed)
	for _, name := range []string{"boomA", "boomB"} {
		reg.Arm(&faultinject.Specimen{
			ID: name, Class: faultinject.Crash, Deterministic: true,
			Prob: 1.0, Op: "mkdir", Point: "entry", PathSubstr: name, MaxFires: 1,
		})
	}
	return reg
}

// applyTrace runs a generated trace against the supervised filesystem.
func applyTrace(fs *FS, cfg workload.Config) {
	for _, rec := range workload.Generate(cfg) {
		op := rec.Clone()
		op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		_ = oplog.Apply(fs, op)
	}
}

// TestRecoveryIOIndependentOfImageSize is the "recovery is bounded by the
// log, not the image" invariant as exact counts. The same seeded trace, sync
// and planted fault run on a 32 MiB and on a 256 MiB image under the
// production-default configuration; across the steady-state recovery the
// device must see the same reads at both sizes, up to the bitmap blocks a
// bigger image adds, and the process must allocate little at either. What a
// recovery allocates follows the ops it replays and the descriptors it
// restores (the shadow copies a block for most reads), so the trace is kept
// close to the benchmark's storm: a handful of ops since the last sync.
//
// The only image-proportional reads left are the block-bitmap blocks (one
// per 128 MiB; the inode bitmap of a default-formatted image fits one block
// up to 512 MiB): the shadow's mount and the base's mount each count the
// whole block bitmap once, so 256 MiB costs one more block than 32 MiB in
// each. maxExtraReads allows those two and two more, not a share of the image.
func TestRecoveryIOIndependentOfImageSize(t *testing.T) {
	const (
		gapOps        = 5
		maxExtraReads = 4
		maxAllocBytes = 2 << 20
	)
	type cost struct {
		readCalls, readBlocks int64
		allocBytes            uint64
	}
	measure := func(blocks uint32) cost {
		dev := blockdev.NewMem(blocks)
		if _, err := mkfs.Format(dev, mkfs.Options{}); err != nil {
			t.Fatal(err)
		}
		fs, err := Mount(dev, Config{
			Base:      basefs.Options{Injector: plantTwoFaults(3)},
			Telemetry: telemetry.New(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Kill()
		applyTrace(fs, workload.Config{Profile: workload.MetaHeavy, Seed: 11, NumOps: 200})
		if err := fs.Mkdir("/boomA", 0o755); err != nil {
			t.Fatal(err)
		}
		applyTrace(fs, workload.Config{Profile: workload.MetaHeavy, Seed: 12, NumOps: 100})
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < gapOps; i++ {
			if err := fs.Mkdir(fmt.Sprintf("/gap%02d", i), 0o755); err != nil {
				t.Fatal(err)
			}
		}

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		before := dev.Stats().Snapshot()
		if err := fs.Mkdir("/boomB", 0o755); err != nil {
			t.Fatal(err)
		}
		after := dev.Stats().Snapshot()
		runtime.ReadMemStats(&m1)

		st := fs.Stats()
		if st.Recoveries != 2 || st.Degradations != 0 || st.AppFailures != 0 || st.FsckScoped != 1 {
			t.Fatalf("%d blocks: want 2 clean recoveries, the second scoped; stats = %+v", blocks, st)
		}
		if st.OpsReplayed < gapOps {
			t.Fatalf("%d blocks: replayed %d ops, want the %d-op gap", blocks, st.OpsReplayed, gapOps)
		}
		return cost{
			readCalls:  after.ReadCalls - before.ReadCalls,
			readBlocks: after.Reads - before.Reads,
			allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		}
	}

	// One measurement per size is exact: the recovery reads its blocks
	// in the same order on every run.
	small, big := measure(32<<20/4096), measure(256<<20/4096)
	t.Logf("32 MiB: %+v", small)
	t.Logf("256 MiB: %+v", big)
	if d := big.readCalls - small.readCalls; d < 0 || d > maxExtraReads {
		t.Errorf("read calls: %d at 32 MiB, %d at 256 MiB; want the same up to %d extra bitmap reads",
			small.readCalls, big.readCalls, maxExtraReads)
	}
	if d := big.readBlocks - small.readBlocks; d < 0 || d > maxExtraReads {
		t.Errorf("blocks read: %d at 32 MiB, %d at 256 MiB; want the same up to %d extra bitmap blocks",
			small.readBlocks, big.readBlocks, maxExtraReads)
	}
	for _, c := range []cost{small, big} {
		if c.allocBytes > maxAllocBytes {
			t.Errorf("recovery allocated %d bytes, want at most %d", c.allocBytes, maxAllocBytes)
		}
	}
}

// TestFirstRecoveryAllocationBounded pins what the first recovery after a
// mount costs in memory. With no verified baseline it checks the whole
// image, which reads the inode table, the bitmaps and directory blocks but
// no file data, so what it allocates must stay far below the image size:
// about 2.2 MB at 64 MiB, bounded at 4 MiB. Reading the image into memory,
// even in part, breaks the bound.
func TestFirstRecoveryAllocationBounded(t *testing.T) {
	const maxAllocBytes = 4 << 20
	dev := blockdev.NewMem(64 << 20 / 4096)
	if _, err := mkfs.Format(dev, mkfs.Options{}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Config{
		Base:      basefs.Options{Injector: plantTwoFaults(3)},
		Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	applyTrace(fs, workload.Config{Profile: workload.MetaHeavy, Seed: 11, NumOps: 200})

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := fs.Mkdir("/boomA", 0o755); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)

	st := fs.Stats()
	if st.Recoveries != 1 || st.Degradations != 0 || st.AppFailures != 0 || st.FsckFull != 1 {
		t.Fatalf("want one clean recovery with a full check; stats = %+v", st)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("first recovery at 64 MiB allocated %d bytes", alloc)
	if alloc > maxAllocBytes {
		t.Errorf("first recovery allocated %d bytes, want at most %d", alloc, maxAllocBytes)
	}
}

// TestRecoveryStagesPartitionWall holds every recovery, in every mode and
// with every outcome, to the one record RecoveryPhases documents, so a
// recovery's time is attributable from its stages alone: no stage hides
// another's work, none is counted twice, a stage the recovery never ran
// reads zero, and every reader of the record (Stats().Phases, the sink's
// trace, the recovery.stage histograms, TotalDowntime) agrees. Each stage
// boundary is one clock reading, so the identity is exact, on a loaded host
// as on an idle one, and on one core as on many.
//
// Each case takes two faults on mkdir of a "boom" path, deterministic, so
// the shadow masks both under RAE, naive replay re-fires until it degrades,
// and RAE over a corrupted checkpointed image degrades at the check.
func TestRecoveryStagesPartitionWall(t *testing.T) {
	cases := []struct {
		name    string
		mode    Mode
		corrupt bool // scribble on the checkpointed inode table first
		outcome string
		ran     []string // the stages this recovery runs; the others read zero
	}{
		{"rae", ModeRAE, false, "recovered",
			[]string{"plan", "reboot", "fsck", "shadow_mount", "replay", "absorb", "resume"}},
		{"crash-restart", ModeCrashRestart, false, "crash-restart", []string{"plan", "reboot", "resume"}},
		{"naive-replay", ModeNaiveReplay, false, "degraded", []string{"plan", "reboot", "replay", "resume"}},
		{"rae-degraded", ModeRAE, true, "degraded", []string{"plan", "reboot", "fsck", "resume"}},
	}
	forEachProcs(t, []int{1, 0}, func(t *testing.T) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				reg := faultinject.NewRegistry(5)
				reg.Arm(&faultinject.Specimen{
					ID: "boom", Class: faultinject.Crash, Deterministic: true,
					Prob: 1.0, Op: "mkdir", Point: "entry", PathSubstr: "boom",
				})
				sink := telemetry.New()
				fs, dev, sb := newSupervised(t, Config{
					Mode: tc.mode, Base: basefs.Options{Injector: reg}, Telemetry: sink,
				})
				if tc.corrupt {
					fd, _ := fs.Create("/data", 0o644)
					fs.WriteAt(fd, 0, []byte("x"))
					fs.Close(fd)
				}
				applyTrace(fs, workload.Config{Profile: workload.MetaHeavy, Seed: 21, NumOps: 1200})
				if tc.corrupt {
					// The journal is checkpointed home and empty, so the
					// reboot's replay cannot repair the scribble.
					if err := fs.Sync(); err != nil {
						t.Fatal(err)
					}
					if err := fs.Base().Checkpoint(); err != nil {
						t.Fatal(err)
					}
					blk, off := sb.InodeLoc(2)
					if err := dev.CorruptBlock(blk, off+8, 0xFF); err != nil {
						t.Fatal(err)
					}
				}
				_ = fs.Mkdir("/boomA", 0o755)
				_ = fs.Mkdir("/boomB", 0o755)

				st := fs.Stats()
				if st.Recoveries != 2 || int64(len(st.Phases)) != st.Recoveries {
					t.Fatalf("recoveries = %d with %d records, want 2 and one record each", st.Recoveries, len(st.Phases))
				}
				wantDeg := int64(0)
				if tc.outcome == "degraded" {
					wantDeg = st.Recoveries
				}
				if st.Degradations != wantDeg {
					t.Errorf("degradations = %d, want %d", st.Degradations, wantDeg)
				}
				traces := sink.RecoveryTraces()
				if len(traces) != len(st.Phases) {
					t.Fatalf("%d traces for %d records", len(traces), len(st.Phases))
				}
				ran := map[string]time.Duration{}
				var downtime time.Duration
				for i, ph := range st.Phases {
					t.Logf("%+v", ph)
					if sum := ph.Plan + ph.Reboot + ph.Fsck + ph.ShadowMount + ph.Replay + ph.Absorb + ph.Resume; sum != ph.Wall || ph.Wall <= 0 {
						t.Errorf("record %d: Plan+Reboot+Fsck+ShadowMount+Replay+Absorb+Resume = %v, Wall = %v: the stages do not partition the wall clock",
							i, sum, ph.Wall)
					}
					downtime += ph.Wall
					for _, sp := range ph.spans() {
						if slices.Contains(tc.ran, sp.Stage) {
							ran[sp.Stage] += sp.Duration
						} else if sp.Duration != 0 {
							t.Errorf("record %d: %s = %v in a recovery that never runs it", i, sp.Stage, sp.Duration)
						}
					}
					tr := traces[i]
					if !reflect.DeepEqual(tr.Spans, ph.spans()) || tr.Wall != ph.Wall {
						t.Errorf("trace %d = %v wall %v, want the record's stages %v wall %v", tr.ID, tr.Spans, tr.Wall, ph.spans(), ph.Wall)
					}
					if tr.Trigger != "panic" || tr.Mode != tc.mode.String() || tr.Outcome != tc.outcome {
						t.Errorf("trace %d = %s/%s/%s, want panic/%s/%s", tr.ID, tr.Trigger, tr.Mode, tr.Outcome, tc.mode, tc.outcome)
					}
				}
				for _, stage := range tc.ran {
					if ran[stage] <= 0 {
						t.Errorf("%s = %v over the recoveries, want a positive duration", stage, ran[stage])
					}
				}
				if st.TotalDowntime != downtime {
					t.Errorf("TotalDowntime = %v, want the records' Wall summed, %v", st.TotalDowntime, downtime)
				}
				snap := sink.Snapshot()
				for _, sp := range append(RecoveryPhases{}.spans(), telemetry.Span{Stage: "wall"}) {
					if n := snap.Histograms["recovery.stage."+sp.Stage+"_ns"].Count; n != st.Recoveries {
						t.Errorf("recovery.stage.%s_ns observed %d recoveries, want %d", sp.Stage, n, st.Recoveries)
					}
				}
				if got := snap.Counters["recovery.trigger.panic"]; got != st.Recoveries {
					t.Errorf("recovery.trigger.panic = %d, want %d", got, st.Recoveries)
				}
			})
		}
	})
}
