// Package oplog implements operation recording: the execution trace the RAE
// supervisor keeps of every state-changing operation since the last durable
// point.
//
// The paper (§3.2): "the base filesystem must record the operation sequence
// that tracks the gap between the applications' view and the on-disk state.
// Essentially, this is an execution trace that records the order that
// operations were handled ... The recorded operation sequence also reflects
// the outcome of the operations, such as the return value, new file
// descriptors, and new inode numbers." Outcomes are what the shadow's
// constrained mode validates during recovery.
//
// The Op type doubles as the neutral operation representation used by the
// workload generators and the differential tester, so the exact trace a
// workload produced is the exact trace the shadow replays.
package oplog

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/telemetry"
)

// Kind enumerates the recordable operations: every mutating call plus the
// descriptor-lifecycle calls the shadow needs to reconstruct the fd table.
type Kind int

// Operation kinds.
const (
	KMkdir Kind = iota
	KRmdir
	KCreate
	KOpen
	KClose
	KWrite
	KTruncate
	KUnlink
	KRename
	KLink
	KSymlink
	KSetPerm
	KFsync
	KSync
	// KReadDirProbe and KStatProbe are read-only probes used by workloads
	// and the differential tester; the supervisor never records them.
	KReadDirProbe
	KStatProbe
	KReadProbe
)

// String returns the kind's operation name.
func (k Kind) String() string {
	names := [...]string{"mkdir", "rmdir", "create", "open", "close", "write",
		"truncate", "unlink", "rename", "link", "symlink", "setperm", "fsync",
		"sync", "readdir", "stat", "read"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Mutating reports whether the kind changes essential state (and so must be
// recorded).
func (k Kind) Mutating() bool {
	switch k {
	case KReadDirProbe, KStatProbe, KReadProbe:
		return false
	}
	return true
}

// Op is one operation with its arguments and, once executed, its outcome.
type Op struct {
	// Seq is the position in the recorded sequence.
	Seq uint64
	// Kind selects the operation.
	Kind Kind
	// Path is the primary path (linkPath for symlink).
	Path string
	// Path2 is the secondary path: rename/link target, symlink target text.
	Path2 string
	// FD is the descriptor argument for close/write/fsync/read probes.
	FD fsapi.FD
	// Off is the offset for write and read probes.
	Off int64
	// Data is the write payload (shared data pages in the paper's terms: the
	// recorded trace carries buffered write contents so the shadow can
	// reproduce them without the base's memory).
	Data []byte
	// Perm is the mode for mkdir/create/setperm.
	Perm uint16
	// Size is the truncate target or read-probe length.
	Size int64

	// Outcome, filled by Apply.

	// Errno is the fserr errno of the result (0 on success).
	Errno int
	// RetFD is the descriptor returned by create/open.
	RetFD fsapi.FD
	// RetIno is the inode number the operation allocated or targeted,
	// validated by the shadow's constrained mode.
	RetIno uint32
	// RetN is the byte count returned by write.
	RetN int
	// RetData is the data returned by a read probe, so a recovery that
	// re-executes an in-flight read on the shadow can hand the application
	// the bytes without touching the base again.
	RetData []byte
}

// Err reconstructs the outcome error from the recorded errno.
func (o *Op) Err() error { return fserr.FromErrno(o.Errno) }

// Apply executes the operation against any filesystem implementation and
// records the outcome into the op, returning the outcome error. This single
// executor serves the base (recording), the shadow (re-execution), the
// model (oracle), and the differential tester.
func Apply(fs fsapi.FS, o *Op) error {
	switch o.Kind {
	case KMkdir:
		err := fs.Mkdir(o.Path, o.Perm)
		o.Errno = fserr.Errno(err)
		if err == nil {
			if st, serr := fs.Stat(o.Path); serr == nil {
				o.RetIno = st.Ino
			}
		}
		return err
	case KRmdir:
		err := fs.Rmdir(o.Path)
		o.Errno = fserr.Errno(err)
		return err
	case KCreate:
		fd, err := fs.Create(o.Path, o.Perm)
		o.Errno = fserr.Errno(err)
		o.RetFD = fd
		if err == nil {
			if st, serr := fs.Fstat(fd); serr == nil {
				o.RetIno = st.Ino
			}
		}
		return err
	case KOpen:
		fd, err := fs.Open(o.Path)
		o.Errno = fserr.Errno(err)
		o.RetFD = fd
		if err == nil {
			if st, serr := fs.Fstat(fd); serr == nil {
				o.RetIno = st.Ino
			}
		}
		return err
	case KClose:
		err := fs.Close(o.FD)
		o.Errno = fserr.Errno(err)
		return err
	case KWrite:
		n, err := fs.WriteAt(o.FD, o.Off, o.Data)
		o.Errno = fserr.Errno(err)
		o.RetN = n
		return err
	case KTruncate:
		err := fs.Truncate(o.Path, o.Size)
		o.Errno = fserr.Errno(err)
		return err
	case KUnlink:
		err := fs.Unlink(o.Path)
		o.Errno = fserr.Errno(err)
		return err
	case KRename:
		err := fs.Rename(o.Path, o.Path2)
		o.Errno = fserr.Errno(err)
		return err
	case KLink:
		err := fs.Link(o.Path, o.Path2)
		o.Errno = fserr.Errno(err)
		return err
	case KSymlink:
		err := fs.Symlink(o.Path2, o.Path)
		o.Errno = fserr.Errno(err)
		return err
	case KSetPerm:
		err := fs.SetPerm(o.Path, o.Perm)
		o.Errno = fserr.Errno(err)
		return err
	case KFsync:
		err := fs.Fsync(o.FD)
		o.Errno = fserr.Errno(err)
		return err
	case KSync:
		err := fs.Sync()
		o.Errno = fserr.Errno(err)
		return err
	case KReadDirProbe:
		_, err := fs.Readdir(o.Path)
		o.Errno = fserr.Errno(err)
		return err
	case KStatProbe:
		st, err := fs.Stat(o.Path)
		o.Errno = fserr.Errno(err)
		if err == nil {
			o.RetIno = st.Ino
		}
		return err
	case KReadProbe:
		b, err := fs.ReadAt(o.FD, o.Off, int(o.Size))
		o.Errno = fserr.Errno(err)
		o.RetN = len(b)
		o.RetData = b
		return err
	}
	return fmt.Errorf("oplog: unknown kind %d: %w", o.Kind, fserr.ErrInvalid)
}

// Clone deep-copies the op (including the write payload).
func (o *Op) Clone() *Op {
	cp := *o
	if o.Data != nil {
		cp.Data = make([]byte, len(o.Data))
		copy(cp.Data, o.Data)
	}
	if o.RetData != nil {
		cp.RetData = make([]byte, len(o.RetData))
		copy(cp.RetData, o.RetData)
	}
	return &cp
}

// String formats the op for discrepancy reports.
func (o *Op) String() string {
	switch o.Kind {
	case KRename, KLink:
		return fmt.Sprintf("#%d %s(%q, %q) -> errno %d", o.Seq, o.Kind, o.Path, o.Path2, o.Errno)
	case KSymlink:
		return fmt.Sprintf("#%d symlink(%q -> %q) -> errno %d", o.Seq, o.Path, o.Path2, o.Errno)
	case KWrite:
		return fmt.Sprintf("#%d write(fd %d, off %d, %d bytes) -> (%d, errno %d)",
			o.Seq, o.FD, o.Off, len(o.Data), o.RetN, o.Errno)
	case KClose, KFsync:
		return fmt.Sprintf("#%d %s(fd %d) -> errno %d", o.Seq, o.Kind, o.FD, o.Errno)
	case KSync:
		return fmt.Sprintf("#%d sync() -> errno %d", o.Seq, o.Errno)
	case KCreate, KOpen:
		return fmt.Sprintf("#%d %s(%q) -> (fd %d, ino %d, errno %d)",
			o.Seq, o.Kind, o.Path, o.RetFD, o.RetIno, o.Errno)
	default:
		return fmt.Sprintf("#%d %s(%q) -> errno %d", o.Seq, o.Kind, o.Path, o.Errno)
	}
}

// The log's bound: once it holds MaxOps ops, or MaxBytes of adopted write
// payload, Append reports it full and the supervisor forces a stable point.
// Both limit what a recovery replays and what the log keeps in memory.
const (
	MaxOps   = 4096
	MaxBytes = 8 << 20
)

// The spare-payload bound: at most maxSpares buffers and maxSpareBytes of
// capacity in all, no more than the base's block pool. A payload shorter
// than minSpare is never pooled: make is cheap at that size, and small
// spares would only crowd out the large ones.
const (
	maxSpares     = 16
	maxSpareBytes = 512 << 10
	minSpare      = disklayout.BlockSize
)

// Log is the supervisor's record of operations since the last stable point,
// together with the descriptor table and logical clock at that point —
// everything the shadow needs to reconstruct state from trusted
// on-disk contents.
//
// One mutex guards everything. An append claims its sequence number and
// stores the op under it, so ops sit in Seq order and a sequence number is
// never visible before its op. The total order that shadow replay needs is
// the Seq order; the supervisor guarantees it is a valid serialization by
// holding its per-resource record locks across execute+append for
// conflicting ops.
type Log struct {
	mu sync.Mutex
	// ops are the recorded ops since the stable point, in Seq order. They
	// are held by value: recording one costs no allocation once the backing
	// array has grown, and the log's bound keeps it small.
	ops  []Op
	next uint64 // next sequence number
	// bytes is the write payload the recorded ops hold.
	bytes int64
	peak  int

	// baseFDs is the descriptor table at the stable point: set by Stable,
	// then advanced by StableAt's fold of the ops it drops.
	baseFDs    map[fsapi.FD]uint32
	startClock uint64

	// spares are the payloads of dropped ops, for Payload to hand out
	// again; spareBytes is their total capacity.
	spares     [][]byte
	spareBytes int

	// Telemetry instruments are installed once, before concurrent use.
	telLen                    *telemetry.Gauge
	telAppends, telTruncation *telemetry.Counter
	telAppendNs               *telemetry.Histogram
}

// SetTelemetry installs the live-length gauge ("oplog.len"), the
// append/truncation counters ("oplog.appends", "oplog.truncations"), and the
// append-latency histogram ("oplog.append_ns") from s. It must be called
// before the log is shared between goroutines (the supervisor calls it at
// Mount).
func (l *Log) SetTelemetry(s *telemetry.Sink) {
	if s == nil {
		return
	}
	l.telLen = s.Gauge("oplog.len")
	l.telAppends = s.Counter("oplog.appends")
	l.telTruncation = s.Counter("oplog.truncations")
	l.telAppendNs = s.Histogram("oplog.append_ns")
}

// NewLog returns an empty log whose stable point is a fresh filesystem (no
// open descriptors, clock zero).
func NewLog() *Log {
	return &Log{baseFDs: map[fsapi.FD]uint32{}}
}

// Append records a completed operation (the op's outcome fields must already
// be filled). Non-mutating kinds are ignored.
//
// The log copies the op struct but adopts o.Data: from the call on, the
// payload belongs to the log, and nobody else may read or mutate it; once a
// stable point drops the op, Payload may hand the buffer to a later write.
// Its producer, core.FS.WriteAt, has already made the payload a private copy
// of the caller's buffer, so copying it again here would only add a second
// copy of every write. Snapshots still hand out deep copies.
//
// Append reports whether this op filled the log: its length reached a
// multiple of MaxOps, or its payload crossed a multiple of MaxBytes. Each
// crossing is reported once, so a stable point that fails is retried at the
// next crossing, not on every op after it.
func (l *Log) Append(o *Op) (full bool) {
	if !o.Kind.Mutating() {
		return false
	}
	tm := telemetry.StartTimer(l.telAppendNs)
	size := int64(len(o.Data))
	l.mu.Lock()
	l.ops = append(l.ops, *o)
	l.ops[len(l.ops)-1].Seq = l.next
	l.next++
	n := len(l.ops)
	l.peak = max(l.peak, n)
	l.bytes += size
	b := l.bytes
	l.mu.Unlock()
	l.telAppends.Inc()
	l.telLen.Set(int64(n))
	tm.Stop()
	return n%MaxOps == 0 || (b-size)/MaxBytes != b/MaxBytes
}

// Watermark returns a sequence-number upper bound W such that every op with
// Seq < W has been fully appended — and, because the supervisor appends
// after executing, fully executed on the base. A sequence number is claimed
// and its op stored under one lock, so no claimed-but-uninserted sequence
// can hide below W; any op appended after Watermark returns necessarily
// claims Seq >= W. The sync leader reads the watermark before issuing the
// base sync and truncates with StableAt afterwards: exactly the ops known
// executed before the sync's snapshot are discarded.
func (l *Log) Watermark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// StableAt marks a durable point covering every op with Seq < watermark:
// those ops' effects were captured by a base sync that has completed, so
// they are discarded and clock replaces the stable point's clock. Ops at or
// above the watermark stay recorded — some may already be durable (a write
// that raced into the sync's snapshot), which is safe because replaying a
// durable write is idempotent and the shadow never re-executes syncs.
//
// The descriptor table at the new stable point is folded from the log, not
// captured from the base: each dropped op's descriptor effect is applied to
// the old table (a successful create or open adds RetFD→RetIno, a
// successful close deletes FD). That is exactly what the shadow computes by
// replaying those ops from the old stable point, and the supervisor records
// every descriptor change in its execution order (all of them hold the
// namespace record lock across execute+append), so the fold equals the
// base's table as of the watermark.
func (l *Log) StableAt(watermark uint64, clock uint64) {
	l.mu.Lock()
	cut := sort.Search(len(l.ops), func(i int) bool { return l.ops[i].Seq >= watermark })
	for i := range l.ops[:cut] {
		o := &l.ops[i]
		l.bytes -= int64(len(o.Data))
		if o.Errno != 0 {
			continue
		}
		switch o.Kind {
		case KCreate, KOpen:
			l.baseFDs[o.RetFD] = o.RetIno
		case KClose:
			delete(l.baseFDs, o.FD)
		}
	}
	kept := l.dropLocked(cut)
	l.startClock = clock
	l.mu.Unlock()
	l.telTruncation.Inc()
	l.telLen.Set(int64(kept))
}

// dropLocked discards the first cut ops, keeping the rest in order, and
// returns how many are kept. The discarded payloads become spares.
func (l *Log) dropLocked(cut int) int {
	for i := range l.ops[:cut] {
		l.recycleLocked(l.ops[i].Data)
	}
	kept := copy(l.ops, l.ops[cut:])
	clear(l.ops[kept:]) // release the discarded payloads
	l.ops = l.ops[:kept]
	return kept
}

// recycleLocked puts a dropped op's payload on the spare list, discarding
// the oldest spares to stay within the bound. A payload shorter than
// minSpare or larger than the whole bound goes to the GC.
func (l *Log) recycleLocked(b []byte) {
	c := cap(b)
	if c < minSpare || c > maxSpareBytes {
		return
	}
	for len(l.spares) == maxSpares || l.spareBytes+c > maxSpareBytes {
		l.spareBytes -= cap(l.spares[0])
		l.spares = slices.Delete(l.spares, 0, 1)
	}
	l.spares = append(l.spares, b[:c])
	l.spareBytes += c
}

// Payload returns an n-byte buffer for the payload of a write the caller
// will Append: the smallest spare that fits, or a new buffer when none does
// or n is under one block. Its bytes are arbitrary; the caller overwrites
// all of them. The spares belong to this log alone, so nothing outside the
// supervisor, the base included, can reach one: a spare's last holder was
// the op a stable point dropped.
func (l *Log) Payload(n int) []byte {
	if n >= minSpare {
		l.mu.Lock()
		best := -1
		for i, b := range l.spares {
			if cap(b) >= n && (best < 0 || cap(b) < cap(l.spares[best])) {
				best = i
			}
		}
		if best >= 0 {
			b := l.spares[best]
			l.spares = slices.Delete(l.spares, best, best+1)
			l.spareBytes -= cap(b)
			l.mu.Unlock()
			return b[:n]
		}
		l.mu.Unlock()
	}
	return make([]byte, n)
}

// Holdings returns the payload of every recorded op, the spares, and the
// spare bound in buffers and bytes. It exists only for ownership tests; no
// production path calls it.
func (l *Log) Holdings() (payloads, spares [][]byte, maxBufs, maxBytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.ops {
		if l.ops[i].Data != nil {
			payloads = append(payloads, l.ops[i].Data)
		}
	}
	return payloads, slices.Clone(l.spares), maxSpares, maxSpareBytes
}

// Stable marks a new durable point from a table read off the base: all
// recorded operations are now on disk, so they are discarded, and a copy of
// fds and clock replace the stable point's table and clock. ("When ... the
// buffered updates are flushed to disk, the corresponding recorded
// operations can be discarded.") Only mount and crash-restart use it, where
// the base's table is not the log's fold (a fresh base has no descriptors).
// Callers must have quiesced appenders (the supervisor only full-truncates
// while holding the recovery fence exclusively, or at mount).
func (l *Log) Stable(fds map[fsapi.FD]uint32, clock uint64) {
	l.mu.Lock()
	l.dropLocked(len(l.ops))
	l.bytes = 0
	l.baseFDs = make(map[fsapi.FD]uint32, len(fds))
	maps.Copy(l.baseFDs, fds)
	l.startClock = clock
	l.mu.Unlock()
	l.telTruncation.Inc()
	l.telLen.Set(0)
}

// ForgetFDs empties the stable point's descriptor table and keeps every op:
// a recovery that remounts without resurrecting the descriptors open at the
// stable point (naive replay) tells the log they are gone, so later folds
// start from the table the base really has.
func (l *Log) ForgetFDs() {
	l.mu.Lock()
	clear(l.baseFDs)
	l.mu.Unlock()
}

// Snapshot returns the recovery input: the ops since the stable point (deep
// copies, in sequence order), the descriptor table at the stable point, and
// the clock then.
//
// The ops are deep-copied under the lock. That holds appenders off for the
// copy, which costs nothing in practice: the supervisor snapshots only with
// the recovery gate closed (planRecovery, finishCrashRestart, naiveReplay),
// when no operation can append, and DumpLog is a tool's entry point.
func (l *Log) Snapshot() (ops []*Op, fds map[fsapi.FD]uint32, clock uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops = make([]*Op, len(l.ops))
	for i := range l.ops {
		ops[i] = l.ops[i].Clone()
	}
	return ops, maps.Clone(l.baseFDs), l.startClock
}

// Len returns the number of recorded operations since the stable point.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// PeakLen returns the largest log length observed, an experiment metric for
// recovery-cost studies.
func (l *Log) PeakLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak
}

// Bytes returns the write payload held by the recorded ops, the quantity
// MaxBytes bounds.
func (l *Log) Bytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.bytes)
}
