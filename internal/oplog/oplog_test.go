package oplog

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/model"
)

func newModel(t *testing.T) *model.Model {
	t.Helper()
	sb, err := disklayout.Geometry(4096, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	return model.New(sb)
}

func TestApplyFillsOutcomes(t *testing.T) {
	m := newModel(t)
	op := &Op{Kind: KCreate, Path: "/f", Perm: 0o644}
	if err := Apply(m, op); err != nil {
		t.Fatal(err)
	}
	if op.Errno != 0 || op.RetFD != 0 || op.RetIno != 2 {
		t.Errorf("create outcome = %+v", op)
	}
	op = &Op{Kind: KWrite, FD: 0, Off: 0, Data: []byte("hello")}
	if err := Apply(m, op); err != nil {
		t.Fatal(err)
	}
	if op.RetN != 5 {
		t.Errorf("write RetN = %d", op.RetN)
	}
	op = &Op{Kind: KReadProbe, FD: 0, Off: 1, Size: 3}
	if err := Apply(m, op); err != nil {
		t.Fatal(err)
	}
	if string(op.RetData) != "ell" || op.RetN != 3 {
		t.Errorf("read outcome = %q n=%d", op.RetData, op.RetN)
	}
	op = &Op{Kind: KCreate, Path: "/f", Perm: 0o644}
	_ = Apply(m, op)
	if !errors.Is(op.Err(), fserr.ErrExist) {
		t.Errorf("duplicate create errno = %d", op.Errno)
	}
}

func TestApplyEveryKind(t *testing.T) {
	m := newModel(t)
	seq := []*Op{
		{Kind: KMkdir, Path: "/d", Perm: 0o755},
		{Kind: KCreate, Path: "/d/f", Perm: 0o644},
		{Kind: KWrite, FD: 0, Off: 0, Data: []byte("x")},
		{Kind: KFsync, FD: 0},
		{Kind: KClose, FD: 0},
		{Kind: KOpen, Path: "/d/f"},
		{Kind: KReadProbe, FD: 0, Off: 0, Size: 1},
		{Kind: KClose, FD: 0},
		{Kind: KTruncate, Path: "/d/f", Size: 0},
		{Kind: KLink, Path: "/d/f", Path2: "/d/g"},
		{Kind: KRename, Path: "/d/g", Path2: "/d/h"},
		{Kind: KSymlink, Path: "/d/s", Path2: "/target"},
		{Kind: KSetPerm, Path: "/d/f", Perm: 0o600},
		{Kind: KStatProbe, Path: "/d/f"},
		{Kind: KReadDirProbe, Path: "/d"},
		{Kind: KUnlink, Path: "/d/h"},
		{Kind: KUnlink, Path: "/d/s"},
		{Kind: KUnlink, Path: "/d/f"},
		{Kind: KRmdir, Path: "/d"},
		{Kind: KSync},
	}
	for i, op := range seq {
		if err := Apply(m, op); err != nil {
			t.Fatalf("op %d (%s): %v", i, op.Kind, err)
		}
	}
}

func TestApplyUnknownKind(t *testing.T) {
	m := newModel(t)
	op := &Op{Kind: Kind(99)}
	if err := Apply(m, op); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("unknown kind: %v", err)
	}
}

func TestMutatingClassification(t *testing.T) {
	mutating := []Kind{KMkdir, KRmdir, KCreate, KOpen, KClose, KWrite, KTruncate,
		KUnlink, KRename, KLink, KSymlink, KSetPerm, KFsync, KSync}
	for _, k := range mutating {
		if !k.Mutating() {
			t.Errorf("%s should be mutating", k)
		}
	}
	for _, k := range []Kind{KReadDirProbe, KStatProbe, KReadProbe} {
		if k.Mutating() {
			t.Errorf("%s should not be mutating", k)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	op := &Op{Kind: KWrite, Data: []byte("abc"), RetData: []byte("xyz")}
	cp := op.Clone()
	cp.Data[0] = 'Z'
	cp.RetData[0] = 'Z'
	if op.Data[0] != 'a' || op.RetData[0] != 'x' {
		t.Error("Clone aliases payload buffers")
	}
}

func TestLogAppendAndSnapshot(t *testing.T) {
	l := NewLog()
	l.Append(&Op{Kind: KCreate, Path: "/a"})
	l.Append(&Op{Kind: KStatProbe, Path: "/a"}) // probe: not recorded
	l.Append(&Op{Kind: KWrite, FD: 0, Data: []byte("d")})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	ops, fds, clk := l.Snapshot()
	if len(ops) != 2 || len(fds) != 0 || clk != 0 {
		t.Fatalf("snapshot = (%d ops, %d fds, clk %d)", len(ops), len(fds), clk)
	}
	if ops[0].Seq != 0 || ops[1].Seq != 1 {
		t.Errorf("seqs = %d, %d", ops[0].Seq, ops[1].Seq)
	}
	// Snapshot is isolated from the live log.
	ops[0].Path = "/mutated"
	ops2, _, _ := l.Snapshot()
	if ops2[0].Path != "/a" {
		t.Error("snapshot aliases log storage")
	}
}

func TestLogStableTruncates(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(&Op{Kind: KMkdir, Path: "/d"})
	}
	fds := map[fsapi.FD]uint32{3: 7, 5: 9}
	l.Stable(fds, 42)
	if l.Len() != 0 {
		t.Fatal("Stable did not truncate")
	}
	if l.PeakLen() != 10 {
		t.Errorf("PeakLen = %d", l.PeakLen())
	}
	_, gotFDs, clk := l.Snapshot()
	if clk != 42 || len(gotFDs) != 2 || gotFDs[3] != 7 {
		t.Errorf("stable state = (%v, %d)", gotFDs, clk)
	}
	// The snapshot map must be a copy.
	fds[3] = 999
	_, gotFDs, _ = l.Snapshot()
	if gotFDs[3] != 7 {
		t.Error("Stable aliases the caller's fd map")
	}
}

func TestLogApproxBytesGrowsWithPayload(t *testing.T) {
	l := NewLog()
	l.Append(&Op{Kind: KWrite, Data: make([]byte, 1000)})
	l.Append(&Op{Kind: KMkdir, Path: "/d"})
	if l.Bytes() != 1000 {
		t.Fatalf("Bytes = %d, want 1000", l.Bytes())
	}
	l.Append(&Op{Kind: KWrite, Data: make([]byte, 100000)})
	if l.Bytes() != 101000 {
		t.Errorf("Bytes = %d after big write, want 101000", l.Bytes())
	}
	l.StableAt(2, nil, 0) // discards the first write and the mkdir
	if l.Bytes() != 100000 {
		t.Errorf("Bytes = %d after truncation, want 100000", l.Bytes())
	}
}

// TestLogBoundReportsEachCrossing pins Append's full report: it fires when
// the length reaches a multiple of MaxOps or the payload crosses a multiple
// of MaxBytes, once per crossing, so a stable point that fails is retried at
// the next crossing rather than on every op.
func TestLogBoundReportsEachCrossing(t *testing.T) {
	l := NewLog()
	var fulls []int
	for i := 1; i <= 2*MaxOps+1; i++ {
		if l.Append(&Op{Kind: KMkdir, Path: "/d"}) {
			fulls = append(fulls, i)
		}
	}
	if len(fulls) != 2 || fulls[0] != MaxOps || fulls[1] != 2*MaxOps {
		t.Fatalf("full reported at appends %v, want [%d %d]", fulls, MaxOps, 2*MaxOps)
	}
	l.Stable(nil, 0)
	payload := make([]byte, MaxBytes/3+1)
	var byteFulls []int
	for i := 1; i <= 7; i++ {
		if l.Append(&Op{Kind: KWrite, Data: payload}) {
			byteFulls = append(byteFulls, i)
		}
	}
	if len(byteFulls) != 2 || byteFulls[0] != 3 || byteFulls[1] != 6 {
		t.Fatalf("byte bound reported at appends %v, want [3 6]", byteFulls)
	}
	if l.Append(&Op{Kind: KStatProbe, Path: "/d"}) {
		t.Error("a probe, which is never recorded, reported the log full")
	}
}

// TestAppendAdoptsPayload pins the log's ownership rule: Append adopts a
// write's payload instead of copying it, so recording a 64 KiB write
// allocates no more than recording an empty one. The 1 KiB of slack absorbs
// runtime noise; a copied payload would cost 64 KiB.
func TestAppendAdoptsPayload(t *testing.T) {
	perAppend := func(size int) uint64 {
		const n = 256
		ops := make([]*Op, n)
		for i := range ops {
			ops[i] = &Op{Kind: KWrite, Data: make([]byte, size)}
		}
		l := NewLog()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, o := range ops {
			l.Append(o)
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / n
	}
	empty, big := perAppend(0), perAppend(64<<10)
	if big > empty+1024 {
		t.Errorf("appending a 64 KiB write allocates %d B, an empty one %d B: the payload was copied", big, empty)
	}
}

func TestErrnoRoundTripProperty(t *testing.T) {
	f := func(n uint8) bool {
		err := fserr.FromErrno(int(n))
		if int(n) == 0 {
			return err == nil
		}
		// Round-tripping a decodable errno is stable.
		if rt := fserr.Errno(err); rt != -1 && fserr.FromErrno(rt) != nil {
			return errors.Is(fserr.FromErrno(rt), err)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256}); err != nil {
		t.Error(err)
	}
}

func TestOpStringForms(t *testing.T) {
	ops := []*Op{
		{Kind: KRename, Path: "/a", Path2: "/b"},
		{Kind: KSymlink, Path: "/l", Path2: "/t"},
		{Kind: KWrite, FD: 3, Off: 10, Data: []byte("xy"), RetN: 2},
		{Kind: KClose, FD: 3},
		{Kind: KSync},
		{Kind: KCreate, Path: "/c", RetFD: 1, RetIno: 5},
		{Kind: KMkdir, Path: "/m"},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("empty String for kind %v", op.Kind)
		}
	}
}
