package fswire

import (
	"sync"

	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/oplog"
)

// This file is the client-side pipelining layer: SubmitOp fires an oplog
// operation down the wire without waiting for its response and returns a
// future that fills the op's outcome fields on Wait. Because the server
// executes a connection's requests strictly in arrival order, a trace
// submitted in order and awaited later is outcome-identical — errnos,
// descriptor numbers, inode numbers, byte counts, state dump — to the same
// trace applied one blocking RPC at a time; the round trips simply overlap,
// bounded by the connection's in-flight window.
//
// Nothing in the stream needs a client-side barrier. Both allocation orders
// the outcome identity depends on are decided server-side at execution time:
// inode numbering because execution order is submission order, and
// descriptor numbering because the server assigns FIDs lowest-free-first the
// moment a create/open succeeds (and frees them on terminal closes) — the
// client just reads the number out of the response. The server also answers
// create/open/mkdir with the inode probe oplog.Apply would have issued, so
// recording RetIno costs no extra frame either.
//
// Small writes coalesce: consecutive SubmitOp writes to the same FID gather
// into one tWriteBatch frame (flushed by any other op kind, the batch caps,
// a synchronous call, or Flush), and the response carries per-entry results
// so each original WriteAt still reports its own errno and byte count.

// OpFuture resolves one submitted operation. Wait is idempotent and
// goroutine-safe; after it returns, the op passed to SubmitOp carries its
// outcome exactly as a synchronous oplog.Apply would have left it.
type OpFuture struct {
	once sync.Once
	fn   func()
}

// Wait blocks until the operation's outcome is recorded.
func (f *OpFuture) Wait() { f.once.Do(f.fn) }

// done builds an already-resolved future (used for malformed submissions).
func doneFuture() *OpFuture {
	f := &OpFuture{fn: func() {}}
	f.Wait()
	return f
}

// writeBatch accumulates consecutive small writes to one FID.
type writeBatch struct {
	fid     uint32
	entries []BatchEntry
	ops     []*oplog.Op // parallel to entries; outcomes filled on resolve
	bytes   int

	resolve sync.Once
	cl      *call // set at flush
	err     error // submit error at flush, or resolution-time wire error
}

// SubmitOp pipelines one operation and returns its future. Submissions from
// one goroutine preserve trace order (and therefore outcome identity);
// concurrent submitters are safe but forfeit determinism, exactly like
// concurrent synchronous callers. The returned future must eventually be
// waited; waits may happen in any order. The anonymous-interface return
// satisfies workload.AsyncFS without the driver importing this package.
func (c *Client) SubmitOp(op *oplog.Op) interface{ Wait() } { return c.submitOp(op) }

func (c *Client) submitOp(op *oplog.Op) *OpFuture {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	switch op.Kind {
	case oplog.KWrite:
		if c.cfg.BatchMaxOps > 1 && len(op.Data) <= c.cfg.BatchMaxBytes {
			return c.submitBatchedWriteLocked(op)
		}
		if err := c.flushBatchLocked(); err != nil {
			return failedFuture(op, err)
		}
		e := &enc{}
		e.u32(uint32(op.FD))
		e.u64(uint64(op.Off))
		e.bytes(op.Data)
		cl, err := c.submit(tWrite, e.b, 0)
		if err != nil {
			return failedFuture(op, err)
		}
		return &OpFuture{fn: func() {
			d, err := c.wait(cl)
			op.Errno = fserr.Errno(err)
			if err == nil {
				op.RetN = int(d.u32())
			}
		}}
	case oplog.KCreate, oplog.KOpen:
		return c.submitFDAllocLocked(op)
	case oplog.KClose:
		return c.submitCloseLocked(op)
	case oplog.KMkdir:
		return c.submitMkdirLocked(op)
	case oplog.KReadProbe:
		return c.submitReadProbeLocked(op)
	case oplog.KStatProbe:
		if err := c.flushBatchLocked(); err != nil {
			return failedFuture(op, err)
		}
		e := &enc{}
		e.str(op.Path)
		cl, err := c.submit(tStat, e.b, 0)
		if err != nil {
			return failedFuture(op, err)
		}
		return &OpFuture{fn: func() {
			d, err := c.wait(cl)
			op.Errno = fserr.Errno(err)
			if err == nil {
				op.RetIno = d.stat().Ino
			}
		}}
	default:
		typ, payload, ok := encodePlain(op)
		if !ok {
			op.Errno = fserr.Errno(fserr.ErrInvalid)
			return doneFuture()
		}
		if err := c.flushBatchLocked(); err != nil {
			return failedFuture(op, err)
		}
		cl, err := c.submit(typ, payload, 0)
		if err != nil {
			return failedFuture(op, err)
		}
		return &OpFuture{fn: func() {
			_, err := c.wait(cl)
			op.Errno = fserr.Errno(err)
		}}
	}
}

// failedFuture records a submission failure as the op's outcome.
func failedFuture(op *oplog.Op, err error) *OpFuture {
	op.Errno = fserr.Errno(err)
	if op.Kind == oplog.KCreate || op.Kind == oplog.KOpen {
		op.RetFD = -1
	}
	return doneFuture()
}

// encodePlain maps the errno-only op kinds onto their request frames.
func encodePlain(op *oplog.Op) (uint8, []byte, bool) {
	e := &enc{}
	switch op.Kind {
	case oplog.KRmdir:
		e.str(op.Path)
		return tRmdir, e.b, true
	case oplog.KTruncate:
		e.str(op.Path)
		e.u64(uint64(op.Size))
		return tTrunc, e.b, true
	case oplog.KUnlink:
		e.str(op.Path)
		return tUnlink, e.b, true
	case oplog.KRename:
		e.str(op.Path)
		e.str(op.Path2)
		return tRename, e.b, true
	case oplog.KLink:
		e.str(op.Path)
		e.str(op.Path2)
		return tLink, e.b, true
	case oplog.KSymlink:
		// Apply's argument order: Symlink(target=Path2, linkPath=Path).
		e.str(op.Path2)
		e.str(op.Path)
		return tSymlink, e.b, true
	case oplog.KSetPerm:
		e.str(op.Path)
		e.u16(op.Perm)
		return tSetPerm, e.b, true
	case oplog.KFsync:
		e.u32(uint32(op.FD))
		return tFsync, e.b, true
	case oplog.KSync:
		return tSync, nil, true
	case oplog.KReadDirProbe:
		e.str(op.Path)
		return tReaddir, e.b, true
	}
	return 0, nil, false
}

// submitMkdirLocked pipelines mkdir. The response carries the new
// directory's inode (the Stat probe oplog.Apply performs), so recording
// RetIno needs no second frame.
func (c *Client) submitMkdirLocked(op *oplog.Op) *OpFuture {
	if err := c.flushBatchLocked(); err != nil {
		return failedFuture(op, err)
	}
	e := &enc{}
	e.str(op.Path)
	e.u16(op.Perm)
	mk, err := c.submit(tMkdir, e.b, 0)
	if err != nil {
		return failedFuture(op, err)
	}
	return &OpFuture{fn: func() {
		d, err := c.wait(mk)
		op.Errno = fserr.Errno(err)
		if err == nil {
			if ino := d.u32(); ino != 0 && d.err() == nil {
				op.RetIno = ino
			}
		}
	}}
}

// submitFDAllocLocked pipelines create/open. The server assigns the FID at
// execution time and returns it with the inode probe's result, so the
// pipeline keeps streaming through descriptor-table ops — descriptor
// determinism is the server's lowest-free allocation, not a client wait.
func (c *Client) submitFDAllocLocked(op *oplog.Op) *OpFuture {
	if err := c.flushBatchLocked(); err != nil {
		return failedFuture(op, err)
	}
	e := &enc{}
	e.str(op.Path)
	typ := uint8(tOpen)
	if op.Kind == oplog.KCreate {
		typ = tCreate
		e.u16(op.Perm)
	}
	main, err := c.submit(typ, e.b, 0)
	if err != nil {
		return failedFuture(op, err)
	}
	return &OpFuture{fn: func() {
		d, err := c.wait(main)
		op.Errno = fserr.Errno(err)
		if err != nil {
			op.RetFD = -1
			return
		}
		fid := d.u32()
		ino := d.u32()
		if d.err() != nil {
			op.Errno = fserr.Errno(fserr.ErrIO)
			op.RetFD = -1
			return
		}
		op.RetFD = fsapi.FD(fid)
		if ino != 0 {
			op.RetIno = ino
		}
		c.trackFID(fid)
	}}
}

// submitCloseLocked pipelines close; the mirror entry drops on any terminal
// outcome, matching the server's release rule.
func (c *Client) submitCloseLocked(op *oplog.Op) *OpFuture {
	if err := c.flushBatchLocked(); err != nil {
		return failedFuture(op, err)
	}
	e := &enc{}
	e.u32(uint32(op.FD))
	cl, err := c.submit(tClose, e.b, 0)
	if err != nil {
		return failedFuture(op, err)
	}
	fd := op.FD
	return &OpFuture{fn: func() {
		_, err := c.wait(cl)
		op.Errno = fserr.Errno(err)
		if fd >= 0 && c.closeReleasesFID(err) {
			c.untrackFID(uint32(fd))
		}
	}}
}

// submitReadProbeLocked pipelines a read, streaming when the probe exceeds a
// chunk — the same decision ReadAt makes.
func (c *Client) submitReadProbeLocked(op *oplog.Op) *OpFuture {
	if err := c.flushBatchLocked(); err != nil {
		return failedFuture(op, err)
	}
	n := int(op.Size)
	if n > c.cfg.StreamChunk {
		cl, err := c.submitReadStreamLocked(op.FD, op.Off, n)
		if err != nil {
			return failedFuture(op, err)
		}
		return &OpFuture{fn: func() {
			b, err := c.collectStream(cl, n)
			op.Errno = fserr.Errno(err)
			op.RetN = len(b)
			op.RetData = b
		}}
	}
	e := &enc{}
	e.u32(uint32(op.FD))
	e.u64(uint64(op.Off))
	e.u32(uint32(n))
	cl, err := c.submit(tRead, e.b, 0)
	if err != nil {
		return failedFuture(op, err)
	}
	return &OpFuture{fn: func() {
		d, err := c.wait(cl)
		op.Errno = fserr.Errno(err)
		if err == nil {
			b := d.bytes()
			op.RetN = len(b)
			op.RetData = b
		}
	}}
}

// submitReadStreamLocked is submitReadStream for callers already holding pmu
// with the batch flushed.
func (c *Client) submitReadStreamLocked(fd fsapi.FD, off int64, n int) (*call, error) {
	e := &enc{}
	e.u32(uint32(fd))
	e.u64(uint64(off))
	e.u32(uint32(n))
	e.u32(uint32(c.cfg.StreamChunk))
	chunks := (n + c.cfg.StreamChunk - 1) / c.cfg.StreamChunk
	if chunks < 1 {
		chunks = 1
	}
	return c.submit(tReadStream, e.b, chunks)
}

// submitBatchedWriteLocked coalesces one small write into the current batch,
// flushing first if the write targets a different FID or would overflow the
// caps.
func (c *Client) submitBatchedWriteLocked(op *oplog.Op) *OpFuture {
	b := c.wb
	if b != nil && (b.fid != uint32(op.FD) ||
		len(b.entries) >= c.cfg.BatchMaxOps ||
		b.bytes+len(op.Data) > c.cfg.BatchMaxBytes) {
		if err := c.flushBatchLocked(); err != nil {
			return failedFuture(op, err)
		}
		b = nil
	}
	if b == nil {
		b = &writeBatch{fid: uint32(op.FD)}
		c.wb = b
	}
	b.entries = append(b.entries, BatchEntry{Off: op.Off, Data: op.Data})
	b.ops = append(b.ops, op)
	b.bytes += len(op.Data)
	return &OpFuture{fn: func() {
		// Flush b if it is still the accumulating batch; if a different
		// batch is current, b was flushed by whatever op displaced it.
		c.pmu.Lock()
		if c.wb == b {
			c.flushBatchLocked() // failure lands in b.err for resolveBatch
		}
		c.pmu.Unlock()
		b.resolveBatch(c)
	}}
}

// flushBatchLocked submits the accumulating write batch, if any. The batch's
// waiters resolve it from the response later; a submission failure is stored
// for them. Callers hold pmu.
func (c *Client) flushBatchLocked() error {
	b := c.wb
	if b == nil {
		return nil
	}
	c.wb = nil
	e := &enc{}
	e.u32(b.fid)
	e.u32(uint32(len(b.entries)))
	for _, be := range b.entries {
		e.u64(uint64(be.Off))
		e.bytes(be.Data)
	}
	b.cl, b.err = c.submit(tWriteBatch, e.b, 0)
	return b.err
}

// resolveBatch waits the batch response once and distributes per-entry
// outcomes to the original write ops.
func (b *writeBatch) resolveBatch(c *Client) {
	b.resolve.Do(func() {
		err := b.err
		var d dec
		if err == nil {
			d, err = c.wait(b.cl)
		}
		if err != nil {
			for _, op := range b.ops {
				op.Errno = fserr.Errno(err)
			}
			return
		}
		count := int(d.u32())
		for i, op := range b.ops {
			if i >= count {
				op.Errno = fserr.Errno(fserr.ErrIO)
				continue
			}
			errno := int(int32(d.u32()))
			n := int(d.u32())
			if d.bad {
				op.Errno = fserr.Errno(fserr.ErrIO)
				continue
			}
			op.Errno = errno
			if errno == 0 {
				op.RetN = n
			}
		}
	})
}
