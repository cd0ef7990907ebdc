package core

import (
	"fmt"
	"runtime"
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

	// The prefetch crew and its consumers never read one block twice, so one
	// measurement per size is exact.
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

// TestRecoveryStagesPartitionWall holds the stage clocks to the identities
// RecoveryPhases documents, so a recovery's time is attributable from its
// phases alone: no stage hides another's work and none is counted twice.
func TestRecoveryStagesPartitionWall(t *testing.T) {
	for _, workers := range []int{1, 0} { // 0 selects the default
		sequential := workers == 1
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sink := telemetry.New()
			fs, _, _ := newSupervised(t, Config{
				Base:            basefs.Options{Injector: plantTwoFaults(5)},
				RecoveryWorkers: workers,
				Telemetry:       sink,
			})
			// A gap big enough that the bookkeeping between the clocks
			// (microseconds) is far below the tolerance.
			applyTrace(fs, workload.Config{Profile: workload.MetaHeavy, Seed: 21, NumOps: 1200})
			if err := fs.Mkdir("/boomA", 0o755); err != nil {
				t.Fatal(err)
			}
			st := fs.Stats()
			if st.Recoveries != 1 || st.Degradations != 0 || len(st.Phases) != 1 {
				t.Fatalf("want one clean recovery, stats = %+v", st)
			}
			ph := st.Phases[0]
			t.Logf("%+v", ph)
			for stage, d := range map[string]time.Duration{
				"Plan": ph.Plan, "Reboot": ph.Reboot, "Fsck": ph.Fsck, "ShadowMount": ph.ShadowMount,
				"Replay": ph.Replay, "ShadowStage": ph.ShadowStage, "Absorb": ph.Absorb, "Resume": ph.Resume,
			} {
				if d <= 0 {
					t.Errorf("%s = %v, want a positive duration", stage, d)
				}
			}
			tol := ph.Wall / 10
			within := func(what string, sum time.Duration) {
				if diff := ph.Wall - sum; diff < -tol || diff > tol {
					t.Errorf("%s = %v, Wall = %v: not within 10%%", what, sum, ph.Wall)
				}
			}
			if sequential {
				within("Plan+Reboot+Fsck+ShadowMount+Replay+Absorb+Resume",
					ph.Plan+ph.Reboot+ph.Fsck+ph.ShadowMount+ph.Replay+ph.Absorb+ph.Resume)
				if ph.InstallWait != 0 {
					t.Errorf("InstallWait = %v at one worker, want 0", ph.InstallWait)
				}
			} else {
				within("Plan+Reboot+Absorb+InstallWait+Resume",
					ph.Plan+ph.Reboot+ph.Absorb+ph.InstallWait+ph.Resume)
				// The shadow's stage starts when Plan ends and Resume starts
				// after both it and the reboot are done. Chunks absorbed while
				// the stage is still producing overlap it, so Absorb belongs
				// to the upper bound only.
				floor := ph.Plan + max(ph.Reboot, ph.ShadowStage) + ph.Resume
				if floor > ph.Wall {
					t.Errorf("Plan+max(Reboot,ShadowStage)+Resume = %v exceeds Wall = %v", floor, ph.Wall)
				}
				if ceil := floor + ph.Absorb + ph.InstallWait; ph.Wall > ceil+tol {
					t.Errorf("Wall = %v exceeds Plan+max(Reboot,ShadowStage)+Absorb+Resume+InstallWait = %v",
						ph.Wall, ceil)
				}
			}
			snap := sink.Snapshot()
			for _, stage := range []string{"plan", "reboot", "fsck", "shadow_mount", "replay",
				"install", "install_wait", "resume", "wall"} {
				if n := snap.Histograms["recovery.stage."+stage+"_ns"].Count; n != 1 {
					t.Errorf("recovery.stage.%s_ns observed %d recoveries, want 1", stage, n)
				}
			}
		})
	}
}
