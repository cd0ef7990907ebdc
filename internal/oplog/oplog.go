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
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

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

// logShards is the stripe count of the log's per-shard segments. Appends
// from different goroutines land on different shards (goroutine-affine
// hashing), so recording never funnels concurrent writers through one
// mutex; Snapshot merges the segments by sequence number.
const logShards = 16

// The log's bound: once it holds MaxOps ops, or MaxBytes of adopted write
// payload, Append reports it full and the supervisor forces a stable point.
// Both limit what a recovery replays and what the log keeps in memory.
const (
	MaxOps   = 4096
	MaxBytes = 8 << 20
)

// logShard is one append segment, padded so two shards' mutexes never share
// a cache line. Ops are stored by value: recording one costs no allocation
// once the backing array has grown, and the log's bound keeps it small.
type logShard struct {
	mu  sync.Mutex
	ops []Op
	_   [24]byte
}

// shardIndex picks a shard for the calling goroutine. Goroutine stacks are
// distinct allocations, so the address of a local is a cheap proxy for
// goroutine identity (the same trick telemetry's sharded counters use).
func shardIndex() uint32 {
	var probe byte
	h := uint32(uintptr(unsafe.Pointer(&probe)) >> 4)
	h *= 2654435761 // Knuth multiplicative hash
	return (h >> 16) & (logShards - 1)
}

// Log is the supervisor's record of operations since the last stable point,
// together with the descriptor table and logical clock captured at that
// point — everything the shadow needs to reconstruct state from trusted
// on-disk contents.
//
// Recording is lock-striped: the sequence number comes from one atomic, the
// op lands in a goroutine-affine shard, and only Snapshot/Watermark/Stable
// touch every shard. The total order that shadow replay needs is the Seq
// order; the supervisor guarantees it is a valid serialization by holding
// its per-resource record locks across execute+append for conflicting ops.
type Log struct {
	// next is the next sequence number; claimed inside a shard lock so that
	// Watermark (which holds all shard locks) never observes a claimed-but-
	// not-yet-inserted sequence.
	next   atomic.Uint64
	length atomic.Int64
	// bytes is the write payload the recorded ops hold.
	bytes  atomic.Int64
	peak   atomic.Int64
	shards [logShards]logShard

	// stableMu guards the stable-point snapshot (descriptor table + clock).
	stableMu   sync.Mutex
	baseFDs    map[fsapi.FD]uint32
	startClock uint64
	// stableSeq is the watermark of the most recent truncation: every op with
	// Seq < stableSeq is durable and discarded. The recovery engine keys its
	// warm replayer on it.
	stableSeq uint64

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
// payload belongs to the log, and nobody may mutate it. Its producer,
// core.FS.WriteAt, has already made the payload a private copy of the
// caller's buffer, so copying it again here would only add a second copy of
// every write. Snapshots still hand out deep copies.
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
	s := &l.shards[shardIndex()]
	s.mu.Lock()
	s.ops = append(s.ops, *o)
	s.ops[len(s.ops)-1].Seq = l.next.Add(1) - 1
	s.mu.Unlock()
	n := l.length.Add(1)
	size := int64(len(o.Data))
	b := l.bytes.Add(size)
	for {
		p := l.peak.Load()
		if n <= p || l.peak.CompareAndSwap(p, n) {
			break
		}
	}
	l.telAppends.Inc()
	l.telLen.Set(n)
	tm.Stop()
	return n%MaxOps == 0 || (b-size)/MaxBytes != b/MaxBytes
}

// lockAll acquires every shard lock in index order; unlockAll releases them.
func (l *Log) lockAll() {
	for i := range l.shards {
		l.shards[i].mu.Lock()
	}
}

func (l *Log) unlockAll() {
	for i := range l.shards {
		l.shards[i].mu.Unlock()
	}
}

// Watermark returns a sequence-number upper bound W such that every op with
// Seq < W has been fully appended — and, because the supervisor appends
// after executing, fully executed on the base. It holds all shard locks for
// the read, so no claimed-but-uninserted sequence can hide below W; any op
// appended after Watermark returns necessarily claims Seq >= W. The sync
// leader reads the watermark before issuing the base sync and truncates with
// StableAt afterwards: exactly the ops known executed before the sync's
// snapshot are discarded.
func (l *Log) Watermark() uint64 {
	l.lockAll()
	w := l.next.Load()
	l.unlockAll()
	return w
}

// StableAt marks a durable point covering every op with Seq < watermark:
// those ops' effects were captured by a base sync that has completed, so
// they are discarded and the descriptor table/clock snapshots replace the
// old ones. Ops at or above the watermark stay recorded — some may already
// be durable (a write that raced into the sync's snapshot), which is safe
// because replaying a durable write is idempotent and the shadow never
// re-executes syncs.
func (l *Log) StableAt(watermark uint64, fds map[fsapi.FD]uint32, clock uint64) {
	l.stableMu.Lock()
	defer l.stableMu.Unlock()
	var removed, freed int64
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		kept := s.ops[:0]
		for j := range s.ops {
			if o := &s.ops[j]; o.Seq < watermark {
				removed++
				freed += int64(len(o.Data))
			} else {
				kept = append(kept, *o)
			}
		}
		clear(s.ops[len(kept):]) // release the discarded payloads
		s.ops = kept
		s.mu.Unlock()
	}
	l.baseFDs = make(map[fsapi.FD]uint32, len(fds))
	for fd, ino := range fds {
		l.baseFDs[fd] = ino
	}
	l.startClock = clock
	if watermark > l.stableSeq {
		l.stableSeq = watermark
	}
	n := l.length.Add(-removed)
	l.bytes.Add(-freed)
	l.telTruncation.Inc()
	l.telLen.Set(n)
}

// StableSeq returns the watermark of the most recent truncation: the first
// sequence number that may still be in the log. Together with a device
// generation it keys the recovery engine's warm replayer — if it moved, the
// on-disk stable point the replayer was reconstructing from is gone.
func (l *Log) StableSeq() uint64 {
	l.stableMu.Lock()
	defer l.stableMu.Unlock()
	return l.stableSeq
}

// Stable marks a new durable point: all recorded operations are now on disk,
// so they are discarded; the descriptor table and clock snapshots replace
// the old ones. ("When ... the buffered updates are flushed to disk, the
// corresponding recorded operations can be discarded.") Callers must have
// quiesced appenders (the supervisor only full-truncates while holding the
// recovery fence exclusively, or at mount).
func (l *Log) Stable(fds map[fsapi.FD]uint32, clock uint64) {
	l.StableAt(l.Watermark(), fds, clock)
}

// Snapshot returns the recovery input: the ops since the stable point (deep
// copies, merged across shards in sequence order), the descriptor table at
// the stable point, and the clock then.
func (l *Log) Snapshot() (ops []*Op, fds map[fsapi.FD]uint32, clock uint64) {
	return l.SnapshotSince(0)
}

// SnapshotSince returns the same recovery input restricted to ops with
// Seq >= seq. A warm replayer that has already consumed the log's prefix
// calls this with its next-unconsumed sequence so a repeated fault copies
// only the new suffix, not the whole gap.
//
// Ops below seq are filtered under the shard locks by reference; the deep
// copies happen after the shard locks are released (safe because recorded
// ops are immutable after Append — the log owns its copies and their
// payloads, and a concurrent Append writes only past a segment's length —
// and stableMu, held throughout, excludes the truncation that compacts
// segments in place).
func (l *Log) SnapshotSince(seq uint64) (ops []*Op, fds map[fsapi.FD]uint32, clock uint64) {
	l.stableMu.Lock()
	defer l.stableMu.Unlock()
	var refs []*Op
	l.lockAll()
	for i := range l.shards {
		s := &l.shards[i]
		for j := range s.ops {
			if o := &s.ops[j]; o.Seq >= seq {
				refs = append(refs, o)
			}
		}
	}
	l.unlockAll()
	ops = make([]*Op, len(refs))
	for i, o := range refs {
		ops[i] = o.Clone()
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Seq < ops[j].Seq })
	fds = make(map[fsapi.FD]uint32, len(l.baseFDs))
	for fd, ino := range l.baseFDs {
		fds[fd] = ino
	}
	return ops, fds, l.startClock
}

// Len returns the number of recorded operations since the stable point.
func (l *Log) Len() int { return int(l.length.Load()) }

// PeakLen returns the largest log length observed, an experiment metric for
// recovery-cost studies.
func (l *Log) PeakLen() int { return int(l.peak.Load()) }

// Bytes returns the write payload held by the recorded ops, the quantity
// MaxBytes bounds.
func (l *Log) Bytes() int { return int(l.bytes.Load()) }
