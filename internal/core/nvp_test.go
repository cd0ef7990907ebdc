package core

import (
	"errors"
	"testing"

	"repro/internal/basefs"
	"repro/internal/difftest"
	"repro/internal/faultinject"
	"repro/internal/fserr"
	"repro/internal/oplog"
	"repro/internal/workload"
)

func TestNVP3AgreesOnCleanWorkload(t *testing.T) {
	n, err := NewNVP3(16384, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Generate(workload.Config{Profile: workload.Soup, Seed: 3, NumOps: 400})
	for _, rec := range trace {
		op := rec.Clone()
		op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		_ = n.Do(op)
	}
	st := n.Stats()
	if st.Ops != int64(len(trace)) {
		t.Errorf("NVP counted %d ops, want %d", st.Ops, len(trace))
	}
	if st.Disagreement != 0 {
		t.Errorf("clean workload produced %d disagreements", st.Disagreement)
	}
	if st.VersionsDead != 0 {
		t.Errorf("%d versions died on a clean workload", st.VersionsDead)
	}
	// Every version executed every op: the base and the shadow end in the
	// model's state.
	want, err := difftest.DumpState(n.versions[2])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range n.versions[:2] {
		got, err := difftest.DumpState(v)
		if err != nil {
			t.Fatalf("%s: %v", n.name[i], err)
		}
		for _, d := range difftest.CompareStates(got, want) {
			t.Errorf("%s: %s", n.name[i], d)
		}
	}
}

func TestNVP3MasksSingleVersionCrash(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(&faultinject.Specimen{
		ID: "nvp-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "trigger",
	})
	n, err := NewNVP3(16384, basefs.Options{Injector: reg})
	if err != nil {
		t.Fatal(err)
	}
	op := &oplog.Op{Kind: oplog.KMkdir, Path: "/trigger", Perm: 0o755}
	if err := n.Do(op); err != nil {
		t.Fatalf("NVP did not mask the base's crash: %v", err)
	}
	st := n.Stats()
	if st.PanicsMasked != 1 || st.VersionsDead != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The surviving two versions continue to serve.
	op = &oplog.Op{Kind: oplog.KCreate, Path: "/trigger/file", Perm: 0o644}
	if err := n.Do(op); err != nil {
		t.Fatalf("post-crash operation failed: %v", err)
	}
}

func TestNVP3FailsWithoutMajority(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(&faultinject.Specimen{
		ID: "nvp-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "mkdir", Point: "entry",
	})
	n, err := NewNVP3(16384, basefs.Options{Injector: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the base (version 0) via the specimen.
	if err := n.Do(&oplog.Op{Kind: oplog.KMkdir, Path: "/a", Perm: 0o755}); err != nil {
		t.Fatal(err)
	}
	// Manually mark another version dead to simulate a second failure.
	n.dead[1] = true
	op := &oplog.Op{Kind: oplog.KMkdir, Path: "/b", Perm: 0o755}
	if err := n.Do(op); !errors.Is(err, fserr.ErrIO) {
		t.Fatalf("single-survivor NVP returned %v, want EIO", err)
	}
}
