package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/basefs"
	"repro/internal/difftest"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/model"
	"repro/internal/oplog"
)

// checkPayloadOwnership holds the op log's payload rule: every recorded
// op's payload and every spare is its own backing array, and the spares are
// within their bound. It returns the number of spares.
func checkPayloadOwnership(t *testing.T, where string, l *oplog.Log) int {
	t.Helper()
	payloads, spares, maxBufs, maxBytes := l.Holdings()
	owner := map[*byte]string{}
	hold := func(b []byte, who string) {
		if cap(b) == 0 {
			return
		}
		// Slices of one array share its last byte.
		end := &b[:cap(b)][cap(b)-1]
		if prev, ok := owner[end]; ok {
			t.Fatalf("%s: %s shares a backing array with %s", where, who, prev)
		}
		owner[end] = who
	}
	for i, p := range payloads {
		hold(p, fmt.Sprintf("op %d's payload", i))
	}
	total := 0
	for i, s := range spares {
		hold(s, fmt.Sprintf("spare %d", i))
		total += cap(s)
	}
	if len(spares) > maxBufs || total > maxBytes {
		t.Fatalf("%s: %d spares of %d bytes, bound %d buffers and %d bytes", where, len(spares), total, maxBufs, maxBytes)
	}
	return len(spares)
}

// TestPayloadPoolNeverAliasesLiveOp runs seeded writes of sub-block to
// multi-block payloads over four files, with fsyncs, syncs, forced stable
// points and one recovery. After every op, no spare aliases a recorded op's
// payload, no two recorded ops share one, the spares are within their
// bound, and the outcome equals the specification model's; at the end every
// file does.
func TestPayloadPoolNeverAliasesLiveOp(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(trigger(faultinject.Crash, "create", true))
	fs, _, sb := newSupervised(t, Config{Base: basefs.Options{Injector: reg}})
	m := model.New(sb)
	rng := rand.New(rand.NewSource(7))
	apply := func(where string, rec *oplog.Op) *oplog.Op {
		t.Helper()
		oracle := rec.Clone()
		_ = oplog.Apply(m, oracle)
		got := rec.Clone()
		_ = oplog.Apply(fs, got)
		for _, d := range difftest.CompareOutcome(got, oracle) {
			t.Fatalf("%s: %s", where, d)
		}
		checkPayloadOwnership(t, where, fs.log)
		return got
	}
	apply("mkdir", &oplog.Op{Kind: oplog.KMkdir, Path: "/d", Perm: 0o755})
	for i := 0; i < 4; i++ {
		apply("create", &oplog.Op{Kind: oplog.KCreate, Path: fmt.Sprintf("/d/f%d", i), Perm: 0o644})
	}
	maxSpares := 0
	for step := 0; step < 600; step++ {
		where := fmt.Sprintf("step %d", step)
		fd := rng.Intn(4)
		// Steps 200 to 399 never sync: their writes cross the log's byte
		// bound, which forces stable points.
		syncing := step < 200 || step >= 400
		switch r := rng.Intn(100); {
		case step == 300:
			apply(where, &oplog.Op{Kind: oplog.KCreate, Path: "/d/trigger", Perm: 0o644})
		case syncing && r < 3:
			apply(where, &oplog.Op{Kind: oplog.KFsync, FD: fsapi.FD(fd)})
		case syncing && r < 4:
			apply(where, &oplog.Op{Kind: oplog.KSync})
		default:
			data := make([]byte, 1+rng.Intn(130<<10))
			rng.Read(data)
			off := int64(rng.Intn(256 << 10))
			apply(where, &oplog.Op{Kind: oplog.KWrite, FD: fsapi.FD(fd), Off: off, Data: data})
		}
		maxSpares = max(maxSpares, checkPayloadOwnership(t, where, fs.log))
	}
	for i := 0; i < 4; i++ {
		got, err := fs.ReadAt(fsapi.FD(i), 0, 512<<10)
		want, werr := m.ReadAt(fsapi.FD(i), 0, 512<<10)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Errorf("/d/f%d differs from the model (errors %v, %v)", i, err, werr)
		}
	}
	st := fs.Stats()
	if st.Recoveries != 1 || st.AppFailures != 0 || st.Degradations != 0 {
		t.Errorf("recoveries %d, app failures %d, degradations %d; want 1, 0, 0", st.Recoveries, st.AppFailures, st.Degradations)
	}
	if st.ForcedStablePoints == 0 {
		t.Error("no forced stable point ran")
	}
	if maxSpares == 0 {
		t.Error("the log never held a spare payload")
	}
}

// TestAbandonedWritePayloadNeverRecycled pins the watchdog exception: a
// write frozen past the watchdog keeps reading its payload on the
// abandoned goroutine, so the op the recovery answers is logged with its
// own copy, and the buffer the frozen call holds never becomes a spare,
// not even after later stable points and writes. Naive replay re-runs the
// call's own op on the new base, so it is the mode that would log the
// frozen buffer; the shadow logs a copy of its own.
func TestAbandonedWritePayloadNeverRecycled(t *testing.T) {
	for _, mode := range []Mode{ModeRAE, ModeNaiveReplay} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := faultinject.NewRegistry(41)
			reg.Arm(&faultinject.Specimen{
				ID: "frozen-write", Class: faultinject.Freeze,
				Deterministic: true, Op: "writeat", Point: "entry",
				FreezeFor: 60 * time.Millisecond, AfterN: 1, MaxFires: 1,
			})
			fs, _, _ := newSupervised(t, Config{
				Base:     basefs.Options{Injector: reg},
				Mode:     mode,
				Watchdog: 10 * time.Millisecond,
			})
			write := func(fd fsapi.FD, off int64, fill byte) {
				t.Helper()
				if _, err := fs.WriteAt(fd, off, bytes.Repeat([]byte{fill}, 64<<10)); err != nil {
					t.Fatal(err)
				}
			}
			// The file is created after the stable point: naive replay
			// loses the descriptors open at it.
			w, err := fs.Create("/w", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			write(w, 0, 0xA1)
			if err := fs.Close(w); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			_, spares, _, _ := fs.log.Holdings()
			if len(spares) != 1 {
				t.Fatalf("%d spares after one write and a sync, want 1", len(spares))
			}
			frozen := &spares[0][:cap(spares[0])][cap(spares[0])-1]
			fd, err := fs.Create("/a", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			write(fd, 0, 0xB2) // takes the spare, freezes, is answered by recovery
			if st := fs.Stats(); st.Freezes != 1 || st.Recoveries != 1 {
				t.Fatalf("freezes %d, recoveries %d; want 1 and 1", st.Freezes, st.Recoveries)
			}
			for i := 0; i < 8; i++ {
				if err := fs.Fsync(fd); err != nil {
					t.Fatal(err)
				}
				_, spares, _, _ := fs.log.Holdings()
				for _, s := range spares {
					if &s[:cap(s)][cap(s)-1] == frozen {
						t.Fatalf("round %d: the frozen call's payload is a spare", i)
					}
				}
				write(fd, 64<<10, byte(i))
				if i == 4 {
					time.Sleep(80 * time.Millisecond) // the frozen call wakes and reads its payload
				}
			}
			got, err := fs.ReadAt(fd, 0, 64<<10)
			if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xB2}, 64<<10)) {
				t.Fatalf("the recovered write reads back wrong (%v)", err)
			}
		})
	}
}

// TestWriteAtAllocs pins the recycled payloads: in steady state, 64 KiB
// writes with an fsync after every fourth (stream_cold's rhythm) copy each
// payload into a buffer a stable point dropped, so a supervised WriteAt
// allocates far less than its payload.
func TestWriteAtAllocs(t *testing.T) {
	fs, _, _ := newSupervised(t, Config{})
	fd, err := fs.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	const warm, rounds, perRound = 32, 4, 4
	var total uint64
	for i := 0; i < warm+rounds; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload[0] = byte(i)
		for w := 0; w < perRound; w++ {
			if _, err := fs.WriteAt(fd, int64(w)*int64(len(payload)), payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= warm {
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	per := total / (rounds * perRound)
	if per >= 4<<10 {
		t.Errorf("a steady-state 64 KiB WriteAt with its share of an fsync allocates %d bytes, want under %d", per, 4<<10)
	} else {
		t.Logf("a steady-state 64 KiB WriteAt with its share of an fsync allocates %d bytes", per)
	}
}
