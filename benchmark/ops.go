package main

import (
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/oplog"
)

// opKind is one client call of the benchmark's traces.
type opKind uint8

const (
	opMkdir opKind = iota
	opCreate
	opOpen
	opClose
	opRead
	opWrite
	opUnlink
	opStat
	opReaddir
	opFsync
	opSync
	numKinds
)

var kindNames = [numKinds]string{"mkdir", "create", "open", "close", "read",
	"write", "unlink", "stat", "readdir", "fsync", "sync"}

func (k opKind) String() string { return kindNames[k] }

// readOnly reports whether the call leaves filesystem and descriptor state
// untouched, so replaying a trace for its final state may skip it.
func (k opKind) readOnly() bool { return k == opRead || k == opStat || k == opReaddir }

// barrier reports whether the call is a durability barrier.
func (k opKind) barrier() bool { return k == opFsync || k == opSync }

// usesFD reports whether the call takes a descriptor argument.
func (k opKind) usesFD() bool {
	return k == opClose || k == opRead || k == opWrite || k == opFsync
}

// op is one generated call with the outcome the specification model gave it.
// It holds no pointers: paths and payloads are indices into the trace, so a
// lap of a few hundred thousand ops costs the collector nothing.
type op struct {
	kind  opKind
	fault bool  // the generator planted a fault token that fires on this call
	path  int32 // index into trace.paths
	fd    int32 // descriptor argument, as the oracle numbered it
	n     int32 // write length or read size
	src   int32 // payload offset into trace.pool
	off   int64

	// Oracle outcome.
	errno int32
	retFD int32  // create/open
	retN  int32  // bytes read or written, directory entries listed
	ino   uint32 // stat
	size  int64  // stat
}

// outcome is what one executed call returned, in the op's oracle fields.
type outcome struct {
	errno int32
	retFD int32
	retN  int32
	ino   uint32
	size  int64
}

// trace is one client's deterministic input: pre runs once during set-up,
// lap repeats for as long as the run measures. A lap leaves the namespace,
// file sizes, inode numbers and descriptor table exactly as it found them, so
// every repetition has the same oracle outcomes.
type trace struct {
	paths []string
	pool  []byte // write payloads are slices of this
	pre   []op
	lap   []op
}

// call executes one op against any filesystem. fd is the descriptor the
// target knows the op's oracle descriptor by. The same function drives the
// specification model during generation, every system under test, and the
// model again when the final state is checked.
func call(fs fsapi.FS, t *trace, o *op, fd fsapi.FD) (out outcome, err error) {
	switch o.kind {
	case opMkdir:
		err = fs.Mkdir(t.paths[o.path], 0o755)
	case opCreate:
		var f fsapi.FD
		f, err = fs.Create(t.paths[o.path], 0o644)
		out.retFD = int32(f)
	case opOpen:
		var f fsapi.FD
		f, err = fs.Open(t.paths[o.path])
		out.retFD = int32(f)
	case opClose:
		err = fs.Close(fd)
	case opRead:
		var b []byte
		b, err = fs.ReadAt(fd, o.off, int(o.n))
		out.retN = int32(len(b))
	case opWrite:
		var n int
		n, err = fs.WriteAt(fd, o.off, t.pool[o.src:o.src+o.n])
		out.retN = int32(n)
	case opUnlink:
		err = fs.Unlink(t.paths[o.path])
	case opStat:
		var st fsapi.Stat
		st, err = fs.Stat(t.paths[o.path])
		out.ino, out.size = st.Ino, st.Size
	case opReaddir:
		var ents []fsapi.DirEntry
		ents, err = fs.Readdir(t.paths[o.path])
		out.retN = int32(len(ents))
	case opFsync:
		err = fs.Fsync(fd)
	case opSync:
		err = fs.Sync()
	}
	out.errno = int32(fserr.Errno(err))
	return out, err
}

// wireOp converts an op to the oplog form the fswire client pipelines.
func wireOp(t *trace, o *op) *oplog.Op {
	w := &oplog.Op{FD: fsapi.FD(o.fd), Off: o.off}
	switch o.kind {
	case opMkdir:
		w.Kind, w.Path, w.Perm = oplog.KMkdir, t.paths[o.path], 0o755
	case opCreate:
		w.Kind, w.Path, w.Perm = oplog.KCreate, t.paths[o.path], 0o644
	case opOpen:
		w.Kind, w.Path = oplog.KOpen, t.paths[o.path]
	case opClose:
		w.Kind = oplog.KClose
	case opRead:
		w.Kind, w.Size = oplog.KReadProbe, int64(o.n)
	case opWrite:
		w.Kind, w.Data = oplog.KWrite, t.pool[o.src:o.src+o.n]
	case opUnlink:
		w.Kind, w.Path = oplog.KUnlink, t.paths[o.path]
	case opStat:
		w.Kind, w.Path = oplog.KStatProbe, t.paths[o.path]
	case opReaddir:
		w.Kind, w.Path = oplog.KReadDirProbe, t.paths[o.path]
	case opFsync:
		w.Kind = oplog.KFsync
	case opSync:
		w.Kind = oplog.KSync
	}
	return w
}

// wireOutcome reads back what a pipelined op resolved to. The wire reports
// neither a listing's length nor a stat's size, so those oracle fields are
// carried over and only errno, descriptor, inode and byte count are compared.
func wireOutcome(o *op, w *oplog.Op) outcome {
	out := outcome{errno: int32(w.Errno), retFD: int32(w.RetFD), retN: int32(w.RetN), ino: w.RetIno, size: o.size}
	if o.kind == opReaddir {
		out.retN = o.retN
	}
	return out
}

// matches reports whether an executed outcome equals the oracle's. Descriptor
// and inode numbers are compared only where one client owns the namespace:
// clients sharing a filesystem interleave their allocations.
func (o *op) matches(got outcome, owns bool) bool {
	if got.errno != o.errno {
		return false
	}
	if o.errno != 0 {
		return true
	}
	switch o.kind {
	case opCreate, opOpen:
		return !owns || got.retFD == o.retFD
	case opRead, opWrite, opReaddir:
		return got.retN == o.retN
	case opStat:
		return got.size == o.size && (!owns || got.ino == o.ino)
	}
	return true
}

// fdTable maps the oracle's descriptor numbers to the ones a target handed
// out for them; -1 marks a number that is not open. Where one client owns
// the namespace the two numberings are equal (and the run checks that).
type fdTable []fsapi.FD

// arg returns the target's descriptor for an op's descriptor argument.
func (t fdTable) arg(o *op) fsapi.FD {
	if o.kind.usesFD() && int(o.fd) < len(t) {
		return t[o.fd]
	}
	return -1
}

// note records what a finished call did to the descriptor table.
func (t *fdTable) note(o *op, got outcome) {
	if got.errno != 0 {
		return
	}
	switch o.kind {
	case opCreate, opOpen:
		for int(o.retFD) >= len(*t) {
			*t = append(*t, -1)
		}
		(*t)[o.retFD] = fsapi.FD(got.retFD)
	case opClose:
		(*t)[o.fd] = -1
	}
}
