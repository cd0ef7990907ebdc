// Package journal implements the physical-block write-ahead journal the base
// filesystem uses for metadata crash consistency.
//
// The RAE contained reboot (paper §3.2) "incorporates the base's crash
// recovery mechanism, such as journal replay": after an error, the rebooted
// base replays committed transactions from this journal to reach the trusted
// on-disk state S0 from which the shadow re-executes the recorded sequence.
//
// Layout inside the journal region [JournalStart, JournalStart+JournalLen):
//
//	block 0:  journal superblock (JSB) — chain tail + next expected txid
//	block 1+: tx chain, each tx = header | payload blocks... | commit block
//
// The header records the transaction id, the number of payload blocks, and
// the home location of each. The commit block repeats the id and carries a
// streaming CRC32C over all payload blocks; a transaction missing a valid
// commit block is ignored by replay (it never happened).
//
// Transactions accumulate: committing does NOT require the previous
// transaction to be checkpointed, so under fsync-heavy load the region fills
// with many live committed transactions and each commit costs exactly two
// device flushes. A checkpoint (the caller writing every live target to its
// home location and flushing) retires the whole chain at once by advancing
// the JSB — sequence number bumped past the chain, tail rewound — instead of
// zeroing the region. Replay walks the chain from the JSB's tail expecting
// strictly sequential txids starting at the JSB's sequence, which makes
// stale remnants from earlier, longer chains unreplayable.
package journal

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/fserr"
	"repro/internal/telemetry"
)

// Record magics distinguishing journal block types.
const (
	jsbMagic    = 0x4A524E53 // "JRNS"
	headerMagic = 0x4A524E48 // "JRNH"
	commitMagic = 0x4A524E43 // "JRNC"
)

// maxTargets is the most payload blocks a single transaction can carry,
// bounded by the u32 slots available in one header block.
const maxTargets = (disklayout.BlockSize - 16 - 4) / 4

// chainStart is the first chain block relative to the region start; block 0
// is the JSB. Checkpoints always rewind the tail here, so the JSB's tail
// field is redundant today but keeps the format honest about where replay
// must begin.
const chainStart = 1

// Journal manages the journal region of a device.
type Journal struct {
	dev   blockdev.Device
	start uint32 // first block of the journal region
	len   uint32 // region length in blocks

	// mu guards the persistent cursor and the live-target set. Physical
	// commits are serialized by the group-commit leader, but Checkpointed
	// and Contains may be called concurrently with a commit in flight.
	mu      sync.Mutex
	head    uint32 // next free block, relative to start
	txid    uint64 // next transaction id
	live    map[uint32]struct{}
	liveTxs int

	// Group-commit coordinator: concurrent Commit callers append to pending;
	// the first becomes leader and drains batches while followers wait on
	// their buffered error channels.
	gcMu    sync.Mutex
	pending []*commitReq
	leading bool

	// Reused scratch blocks so commit is allocation-free per transaction.
	hdrBuf, cmtBuf, jsbBuf []byte

	telCommits, telBlocks, telCheckpoints *telemetry.Counter
	telCommitLatency, telBatch            *telemetry.Histogram
}

// SetTelemetry installs commit instrumentation ("journal.*") from s.
func (j *Journal) SetTelemetry(s *telemetry.Sink) {
	if s == nil {
		return
	}
	j.telCommits = s.Counter("journal.commits")
	j.telBlocks = s.Counter("journal.committed_blocks")
	j.telCheckpoints = s.Counter("journal.checkpoints")
	j.telCommitLatency = s.Histogram("journal.commit.latency")
	j.telBatch = s.Histogram("journal.group.batch_size")
}

// New attaches to the journal region described by sb on dev, reading the
// journal superblock to restore the persistent cursor. The region must have
// been formatted (mkfs writes an empty JSB) or replayed; an undecodable JSB
// here means real corruption, not a torn crash write, because both Format
// and Replay leave a valid one behind.
func New(dev blockdev.Device, sb *disklayout.Superblock) (*Journal, error) {
	j := &Journal{
		dev:    dev,
		start:  sb.JournalStart,
		len:    sb.JournalLen,
		live:   make(map[uint32]struct{}),
		hdrBuf: make([]byte, disklayout.BlockSize),
		cmtBuf: make([]byte, disklayout.BlockSize),
		jsbBuf: make([]byte, disklayout.BlockSize),
	}
	raw, err := dev.ReadBlock(j.start)
	if err != nil {
		return nil, fmt.Errorf("journal: read superblock: %w", err)
	}
	tail, seq, ok := decodeJSB(raw)
	if !ok {
		return nil, fmt.Errorf("journal: invalid journal superblock: %w", fserr.ErrCorrupt)
	}
	j.head = tail
	j.txid = seq
	return j, nil
}

func decodeJSB(b []byte) (tail uint32, seq uint64, ok bool) {
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != jsbMagic ||
		le.Uint32(b[disklayout.BlockSize-4:]) != disklayout.Checksum(b[:disklayout.BlockSize-4]) {
		return 0, 0, false
	}
	tail = le.Uint32(b[4:])
	seq = le.Uint64(b[8:])
	if tail < chainStart || seq == 0 {
		return 0, 0, false
	}
	return tail, seq, true
}

// EncodeJSB serializes a journal superblock into buf (one block). Exported
// for mkfs, which must leave a valid empty JSB behind at format time.
func EncodeJSB(buf []byte, tail uint32, seq uint64) {
	le := binary.LittleEndian
	for i := range buf {
		buf[i] = 0
	}
	le.PutUint32(buf[0:], jsbMagic)
	le.PutUint32(buf[4:], tail)
	le.PutUint64(buf[8:], seq)
	le.PutUint32(buf[disklayout.BlockSize-4:], disklayout.Checksum(buf[:disklayout.BlockSize-4]))
}

// Capacity returns the number of payload blocks the largest single
// transaction can hold in an empty region.
func (j *Journal) Capacity() int {
	if j.len < chainStart+2 {
		return 0
	}
	c := int(j.len) - chainStart - 2 // JSB + header + commit
	if c > maxTargets {
		c = maxTargets
	}
	return c
}

// SpaceLeft returns how many payload blocks the next transaction can carry
// before a checkpoint is required.
func (j *Journal) SpaceLeft() int {
	j.mu.Lock()
	head := j.head
	j.mu.Unlock()
	left := int(j.len) - int(head) - 2
	if left < 0 {
		left = 0
	}
	if left > maxTargets {
		left = maxTargets
	}
	return left
}

// LiveTxs returns the number of committed transactions not yet retired by a
// checkpoint — the chain replay would apply after a crash right now.
func (j *Journal) LiveTxs() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.liveTxs
}

// Contains reports whether blk is a home target of a live committed
// transaction. The base's sync path uses this to detect a freed metadata
// block reallocated as data: writing such a block home before the journal is
// checkpointed would let a crash replay stale metadata over live data, so
// the caller must checkpoint first.
func (j *Journal) Contains(blk uint32) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.live[blk]
	return ok
}

// Tx is one journal transaction under construction: a set of home-location
// block writes that must become durable atomically.
type Tx struct {
	Targets []uint32 // home block numbers
	Blocks  [][]byte // payloads, same length as Targets
}

// Add appends a block write to the transaction, replacing any earlier write
// to the same target so a transaction never carries two versions of a block.
// The transaction adopts data without copying it: the caller must not
// modify data after the call, and the slice is written as the payload as it
// stands at commit time. The sync path hands over its private snapshot copy.
func (t *Tx) Add(blk uint32, data []byte) {
	for i, tgt := range t.Targets {
		if tgt == blk {
			t.Blocks[i] = data
			return
		}
	}
	t.Targets = append(t.Targets, blk)
	t.Blocks = append(t.Blocks, data)
}

// Len returns the number of payload blocks in the transaction.
func (t *Tx) Len() int { return len(t.Targets) }

// ErrJournalFull reports a transaction too large for the remaining region;
// the caller must checkpoint and retry.
var ErrJournalFull = fmt.Errorf("journal: region full: %w", fserr.ErrNoSpace)

// commitReq is one caller's transaction waiting for the group-commit leader.
type commitReq struct {
	tx   *Tx
	errc chan error
}

// Commit durably appends the transaction and returns once it is replay-safe:
// header and payloads are written and flushed, then the commit record is
// written and flushed — two device flushes, shared by every caller that
// coalesced into the same physical transaction. Concurrent Commit calls are
// batched by a leader/follower protocol: the first caller in becomes leader
// and commits the merged batch while later arrivals wait; a batch is bounded
// by the region's single-transaction capacity, beyond which the leader
// starts another physical transaction.
//
// After Commit returns nil the transaction stays live (replayed by any
// subsequent Replay) until Checkpointed retires it, so the caller may lazily
// write the home locations.
func (j *Journal) Commit(tx *Tx) error {
	if tx.Len() == 0 {
		return nil
	}
	if tx.Len() > maxTargets {
		return fmt.Errorf("journal: transaction of %d blocks exceeds max %d: %w",
			tx.Len(), maxTargets, fserr.ErrInvalid)
	}
	req := &commitReq{tx: tx, errc: make(chan error, 1)}
	j.gcMu.Lock()
	j.pending = append(j.pending, req)
	if j.leading {
		// A leader is committing; it will pick this request up in its next
		// batch. Wait as a follower.
		j.gcMu.Unlock()
		return <-req.errc
	}
	j.leading = true
	for len(j.pending) > 0 {
		batch := j.takeBatchLocked()
		j.gcMu.Unlock()
		err := j.commitBatch(batch)
		for _, r := range batch {
			r.errc <- err
		}
		j.gcMu.Lock()
	}
	j.leading = false
	j.gcMu.Unlock()
	return <-req.errc
}

// takeBatchLocked pops the next batch off the pending list: as many requests
// as fit one physical transaction, always at least one. Called with gcMu
// held.
func (j *Journal) takeBatchLocked() []*commitReq {
	var batch []*commitReq
	total := 0
	for len(j.pending) > 0 {
		r := j.pending[0]
		if len(batch) > 0 && total+r.tx.Len() > j.Capacity() {
			break
		}
		batch = append(batch, r)
		total += r.tx.Len()
		j.pending = j.pending[1:]
	}
	return batch
}

// commitBatch merges a batch into one physical transaction and writes it.
func (j *Journal) commitBatch(batch []*commitReq) error {
	t := telemetry.StartTimer(j.telCommitLatency)
	defer t.Stop()

	// Merge, later writes to the same target winning, preserving arrival
	// order otherwise. Payloads are the callers' adopted slices (see
	// Tx.Add). run holds the header block first and then the payloads,
	// which is their order in the region.
	var targets []uint32
	run := [][]byte{j.hdrBuf}
	idx := make(map[uint32]int)
	for _, r := range batch {
		for i, tgt := range r.tx.Targets {
			data := r.tx.Blocks[i]
			if len(data) != disklayout.BlockSize {
				return fmt.Errorf("journal: payload for block %d is %d bytes: %w",
					tgt, len(data), fserr.ErrInvalid)
			}
			if at, ok := idx[tgt]; ok {
				run[1+at] = data
				continue
			}
			idx[tgt] = len(targets)
			targets = append(targets, tgt)
			run = append(run, data)
		}
	}
	n := uint32(len(targets))

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.head+n+2 > j.len {
		return ErrJournalFull
	}
	le := binary.LittleEndian

	// Header block (reused scratch; the CRC covers exactly what we wrote).
	hdr := j.hdrBuf
	le.PutUint32(hdr[0:], headerMagic)
	le.PutUint64(hdr[4:], j.txid)
	le.PutUint32(hdr[12:], n)
	for i, tgt := range targets {
		le.PutUint32(hdr[16+4*i:], tgt)
	}
	le.PutUint32(hdr[disklayout.BlockSize-4:], disklayout.Checksum(hdr[:disklayout.BlockSize-4]))

	// Header and payloads are contiguous in the region, so they go out as
	// one run: one device call, every block still its own crash point. The
	// flush below is the ordering point.
	payloadCRC := uint32(0)
	for _, data := range run[1:] {
		payloadCRC = disklayout.ChecksumUpdate(payloadCRC, data)
	}
	if err := j.dev.WriteVec([]blockdev.Run{{Blk: j.start + j.head, Bufs: run}}); err != nil {
		return fmt.Errorf("journal: write header and payloads: %w", err)
	}
	if err := j.dev.Flush(); err != nil {
		return fmt.Errorf("journal: flush before commit record: %w", err)
	}

	// Commit block. Its presence with a matching checksum is the commit point.
	cmt := j.cmtBuf
	le.PutUint32(cmt[0:], commitMagic)
	le.PutUint64(cmt[4:], j.txid)
	le.PutUint32(cmt[12:], n)
	le.PutUint32(cmt[16:], payloadCRC)
	le.PutUint32(cmt[disklayout.BlockSize-4:], disklayout.Checksum(cmt[:disklayout.BlockSize-4]))
	if err := j.dev.WriteBlock(j.start+j.head+1+n, cmt); err != nil {
		return fmt.Errorf("journal: write commit record: %w", err)
	}
	if err := j.dev.Flush(); err != nil {
		return fmt.Errorf("journal: flush commit record: %w", err)
	}

	j.head += n + 2
	j.txid++
	j.liveTxs++
	for _, tgt := range targets {
		j.live[tgt] = struct{}{}
	}
	j.telCommits.Inc()
	j.telBlocks.Add(int64(n))
	j.telBatch.ObserveNs(int64(len(batch)))
	return nil
}

// Checkpointed retires the whole live chain after the caller has written
// every live target to its home location and flushed: the JSB's sequence is
// advanced past the chain and the tail rewound, making the old records
// unreplayable without touching them. With no live transactions it is a
// no-op — deliberately, so a torn JSB write can only ever be observed while
// a non-empty chain (which replay's fallback scan finds from block 1) is
// still intact on disk.
func (j *Journal) Checkpointed() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.liveTxs == 0 && j.head == chainStart {
		return nil
	}
	EncodeJSB(j.jsbBuf, chainStart, j.txid)
	if err := j.dev.WriteBlock(j.start, j.jsbBuf); err != nil {
		return fmt.Errorf("journal: checkpoint superblock: %w", err)
	}
	if err := j.dev.Flush(); err != nil {
		return fmt.Errorf("journal: checkpoint flush: %w", err)
	}
	j.head = chainStart
	j.liveTxs = 0
	j.live = make(map[uint32]struct{})
	j.telCheckpoints.Inc()
	return nil
}

// ReplayStats reports what Replay found and did.
type ReplayStats struct {
	Committed   int // transactions replayed
	Uncommitted int // trailing transactions discarded (no valid commit record)
	Blocks      int // home-location blocks rewritten
}

// scannedTx is one fully committed transaction found by scanChain: the home
// locations and the payloads destined for them, in intra-tx order.
type scannedTx struct {
	txid     uint64
	targets  []uint32
	payloads [][]byte
}

// scanChain walks the transaction chain from the JSB's tail and collects
// every fully committed transaction in order, without writing anything. It is
// the read-only core shared by Replay (which applies the transactions to
// their home locations) and CommittedOverlay (which exposes them as a logical
// view so a concurrent reader needs no replay ordering).
//
// Transactions must carry strictly sequential txids starting at the JSB's
// sequence; anything else is a stale remnant of an earlier, longer chain and
// is void. A torn JSB (possible only if the crash interrupted a checkpoint's
// JSB write) falls back to scanning from block 1 accepting the first txid
// found — safe, because at any moment a checkpoint advances the JSB, the
// chain it is retiring is exactly the committed state and re-applying it is
// idempotent.
func scanChain(dev blockdev.Device, sb *disklayout.Superblock) (txs []scannedTx, st ReplayStats, expect uint64, wildcard bool, err error) {
	le := binary.LittleEndian

	raw, err := dev.ReadBlock(sb.JournalStart)
	if err != nil {
		return nil, st, 0, false, fmt.Errorf("journal: replay read superblock: %w", err)
	}
	pos, expect, ok := decodeJSB(raw)
	wildcard = !ok
	if wildcard {
		pos, expect = chainStart, 0
	}

	jStart, jEnd := sb.JournalStart, sb.JournalStart+sb.JournalLen
	for pos+2 <= sb.JournalLen {
		hdrBlk, err := dev.ReadBlock(sb.JournalStart + pos)
		if err != nil {
			return nil, st, 0, false, fmt.Errorf("journal: replay read header at +%d: %w", pos, err)
		}
		if le.Uint32(hdrBlk[0:]) != headerMagic ||
			le.Uint32(hdrBlk[disklayout.BlockSize-4:]) != disklayout.Checksum(hdrBlk[:disklayout.BlockSize-4]) {
			break // end of chain (or torn header: treated as never-written)
		}
		txid := le.Uint64(hdrBlk[4:])
		n := le.Uint32(hdrBlk[12:])
		if wildcard && st.Committed == 0 {
			expect = txid // adopt the chain's first txid
		}
		if txid != expect || n == 0 || uint64(n) > uint64(maxTargets) || pos+n+2 > sb.JournalLen {
			st.Uncommitted++
			break // out-of-sequence remnant or impossible header: chain ends
		}
		// Read payloads, folding them into the streaming checksum.
		payloads := make([][]byte, n)
		payloadCRC := uint32(0)
		readOK := true
		for i := uint32(0); i < n; i++ {
			b, err := dev.ReadBlock(sb.JournalStart + pos + 1 + i)
			if err != nil {
				readOK = false
				break
			}
			payloads[i] = b
			payloadCRC = disklayout.ChecksumUpdate(payloadCRC, b)
		}
		if !readOK {
			st.Uncommitted++
			break
		}
		cmtBlk, err := dev.ReadBlock(sb.JournalStart + pos + 1 + n)
		if err != nil ||
			le.Uint32(cmtBlk[0:]) != commitMagic ||
			le.Uint32(cmtBlk[disklayout.BlockSize-4:]) != disklayout.Checksum(cmtBlk[:disklayout.BlockSize-4]) ||
			le.Uint64(cmtBlk[4:]) != txid ||
			le.Uint32(cmtBlk[12:]) != n ||
			le.Uint32(cmtBlk[16:]) != payloadCRC {
			st.Uncommitted++
			break // torn or absent commit: this tx and everything after it is void
		}
		// Committed. Block 0 is a legal target (the sync path journals
		// superblock updates); the journal region itself and anything past the
		// device are not.
		targets := make([]uint32, n)
		for i := uint32(0); i < n; i++ {
			targets[i] = le.Uint32(hdrBlk[16+4*i:])
			if targets[i] >= sb.NumBlocks || (targets[i] >= jStart && targets[i] < jEnd) {
				return nil, st, 0, false, fmt.Errorf("journal: committed tx %d targets block %d outside filesystem: %w",
					txid, targets[i], fserr.ErrCorrupt)
			}
		}
		txs = append(txs, scannedTx{txid: txid, targets: targets, payloads: payloads})
		st.Committed++
		expect = txid + 1
		pos += n + 2
	}
	return txs, st, expect, wildcard, nil
}

// CommittedOverlay scans the chain read-only and returns the logical
// home-location contents of every committed transaction, later transactions
// overriding earlier ones. Layered over the raw device (blockdev.NewOverlay)
// this yields exactly the post-replay image without a single device write —
// the independent read-only view the pipelined recovery engine hands the
// shadow so it can start re-executing while the contained reboot's physical
// replay is still running.
func CommittedOverlay(dev blockdev.Device, sb *disklayout.Superblock) (map[uint32][]byte, ReplayStats, error) {
	txs, st, _, _, err := scanChain(dev, sb)
	if err != nil {
		return nil, st, err
	}
	over := make(map[uint32][]byte)
	for _, tx := range txs {
		for i, blk := range tx.targets {
			over[blk] = tx.payloads[i]
		}
	}
	return over, st, nil
}

// Replay walks the transaction chain from the JSB's tail, re-applies every
// fully committed transaction to its home locations in order, discards the
// uncommitted or corrupt tail, flushes, and writes a fresh JSB retiring what
// it applied. It is idempotent: replaying twice applies the same writes.
// (Chain-walk semantics are documented on scanChain.)
func Replay(dev blockdev.Device, sb *disklayout.Superblock) (ReplayStats, error) {
	txs, st, expect, wildcard, err := scanChain(dev, sb)
	if err != nil {
		return st, err
	}
	for _, tx := range txs {
		for i, blk := range tx.targets {
			if err := dev.WriteBlock(blk, tx.payloads[i]); err != nil {
				return st, fmt.Errorf("journal: replay write block %d: %w", blk, err)
			}
			st.Blocks++
		}
	}
	if st.Committed > 0 {
		if err := dev.Flush(); err != nil {
			return st, fmt.Errorf("journal: replay flush: %w", err)
		}
	}
	// Retire what was applied. Skip the rewrite when it would change nothing
	// so an already-valid JSB is never exposed to a torn write needlessly.
	if st.Committed > 0 || wildcard {
		if expect == 0 {
			expect = 1 // torn JSB over an empty chain: fresh region
		}
		jsb := make([]byte, disklayout.BlockSize)
		EncodeJSB(jsb, chainStart, expect)
		if err := dev.WriteBlock(sb.JournalStart, jsb); err != nil {
			return st, fmt.Errorf("journal: replay superblock: %w", err)
		}
		if err := dev.Flush(); err != nil {
			return st, fmt.Errorf("journal: replay superblock flush: %w", err)
		}
	}
	return st, nil
}
