package workload

import (
	"time"

	"repro/internal/fsapi"
	"repro/internal/oplog"
)

// DriveStats aggregates one trace application.
type DriveStats struct {
	// Applied is the number of operations executed (always len(trace)).
	Applied int
	// Matched counts ops whose executed outcome equals the oracle record —
	// same errno and, for allocating ops, same descriptor/inode/byte-count
	// numbers. This is the "completed as specified" definition the
	// availability test uses.
	Matched int
	// Errors counts ops that returned a nonzero errno.
	Errors int
}

// Drive applies an oracle trace to any fsapi.FS through the oplog executor.
// It is the one driver seam shared by the CLIs, the tests, and the
// serving layers: because the target is the interface, the same trace drives
// a raw base filesystem, a supervised core.FS, a volmgr tenant, or a remote
// fswire client identically. Each record is cloned and its recorded outcome
// cleared before execution, so the input trace is never mutated and can be
// replayed.
func Drive(fs fsapi.FS, trace []*oplog.Op) DriveStats {
	return DriveObserved(fs, trace, nil)
}

// DriveObserved is Drive with a per-op hook: after each operation executes,
// observe receives the oracle record, the executed op (outcome fields
// filled), and the operation's wall-clock latency. A nil observe skips the
// per-op timing entirely.
// AsyncFS is a filesystem whose operations can be pipelined: SubmitOp fires
// an operation without waiting and returns a wait function that records the
// outcome into the op; Flush is the pipeline barrier. The fswire client
// implements it; DrivePipelined is written against the interface so the
// driver stays free of wire-level dependencies.
type AsyncFS interface {
	fsapi.FS
	SubmitOp(op *oplog.Op) interface{ Wait() }
	Flush() error
}

// DrivePipelined is Drive over an AsyncFS: the whole trace is submitted in
// order without waiting for responses, then outcomes are collected. Against
// a backend that executes a connection's requests in submission order (the
// fswire contract), the per-op outcomes and final state are identical to a
// sequential Drive — only the round trips overlap. observe (optional) runs
// per op after its outcome lands, in trace order.
func DrivePipelined(fs AsyncFS, trace []*oplog.Op, observe func(rec, got *oplog.Op)) DriveStats {
	type slot struct {
		rec, got *oplog.Op
		wait     interface{ Wait() }
	}
	slots := make([]slot, 0, len(trace))
	for _, rec := range trace {
		op := rec.Clone()
		op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		slots = append(slots, slot{rec: rec, got: op, wait: fs.SubmitOp(op)})
	}
	var st DriveStats
	for _, s := range slots {
		s.wait.Wait()
		st.Applied++
		if s.got.Errno != 0 {
			st.Errors++
		}
		if s.got.Errno == s.rec.Errno && s.got.RetFD == s.rec.RetFD &&
			s.got.RetIno == s.rec.RetIno && s.got.RetN == s.rec.RetN {
			st.Matched++
		}
		if observe != nil {
			observe(s.rec, s.got)
		}
	}
	return st
}

func DriveObserved(fs fsapi.FS, trace []*oplog.Op, observe func(rec, got *oplog.Op, d time.Duration)) DriveStats {
	var st DriveStats
	for _, rec := range trace {
		op := rec.Clone()
		op.Errno, op.RetFD, op.RetIno, op.RetN = 0, 0, 0, 0
		var t0 time.Time
		if observe != nil {
			t0 = time.Now()
		}
		_ = oplog.Apply(fs, op)
		st.Applied++
		if op.Errno != 0 {
			st.Errors++
		}
		if op.Errno == rec.Errno && op.RetFD == rec.RetFD && op.RetIno == rec.RetIno && op.RetN == rec.RetN {
			st.Matched++
		}
		if observe != nil {
			observe(rec, op, time.Since(t0))
		}
	}
	return st
}
