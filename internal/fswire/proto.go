// Package fswire is the networked file service: a length-prefixed binary RPC
// protocol (9P-flavored — tagged requests, a per-connection FID table) that
// carries the complete fsapi.FS operation set over a byte stream, plus the
// server and a client that itself implements fsapi.FS.
//
// The point is transparency in the paper's sense: the client is just another
// fsapi.FS, so everything built on that interface — the vfs adapter, the
// workload driver, the differential tester — runs unchanged against a remote
// supervised volume, and a recovery masked on the server stays masked on the
// wire (the operation simply takes longer; ErrOverloaded sheds round-trip as
// themselves).
//
// Wire format (all integers little-endian):
//
//	frame   = size:u32 type:u8 tag:u16 payload
//	string  = len:u16 bytes
//	bytes   = len:u32 bytes
//	stat    = ino:u32 mode:u16 nlink:u16 size:u64 mtime:u64 ctime:u64
//
// size counts everything after the size field. Each request type T has a
// response of the same type echoing the tag; every response payload begins
// with errno:u32 (two's-complement fserr.Errno, 0 = success) followed by the
// result fields. Tags let a client keep many requests in flight on one
// connection. The server executes a connection's requests strictly in
// arrival order (the connection's reader runs each one itself), so a
// pipelined stream of operations observes exactly the semantics of issuing
// them sequentially — inode and descriptor allocation order included — while
// the round trips overlap. tReadStream is the one request answered by
// multiple frames (chunked, all carrying the request's tag, a more-flag
// marking continuation); tWriteBatch carries many small writes to one FID in
// a single frame with per-entry results in the response.
//
// FIDs are server-assigned at execution time, lowest-free-first per
// connection, and are the fsapi.FD values the client returns: tCreate/tOpen
// responses carry errno fid:u32 ino:u32 (ino 0 when the inode probe failed)
// and tMkdir responses carry errno ino:u32, so a trace run against a remote
// volume yields descriptor numbers identical to a local run, differential
// checks hold across the wire, and a pipelined client needs no
// descriptor-table barrier — the numbers are decided where the outcomes are
// known, in execution order.
package fswire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// Message types. tAttach binds the connection to a named volume; most of the
// rest map one-to-one onto fsapi.FS methods. tWriteBatch carries several
// WriteAt payloads for one FID in a single frame (per-entry results come
// back); tReadStream answers one request with a sequence of chunked response
// frames sharing the request's tag, so reads larger than a frame stream
// instead of buffering.
const (
	tAttach uint8 = iota + 1
	tMkdir
	tRmdir
	tCreate
	tOpen
	tClose
	tRead
	tWrite
	tTrunc
	tUnlink
	tRename
	tLink
	tSymlink
	tReadlink
	tStat
	tFstat
	tReaddir
	tSetPerm
	tFsync
	tSync
	tWriteBatch
	tReadStream
)

// maxFrame bounds a frame's encoded size: a malformed or hostile peer cannot
// make the other side allocate more than this. Large writes must be split by
// the application (the workload generator's writes are far smaller); large
// reads stream under the bound via tReadStream.
const maxFrame = 1 << 24

// frameHeader is type+tag, the fixed part counted by the size prefix.
const frameHeader = 3

// maxBatchOps bounds the entry count of one tWriteBatch frame on the server
// side, independent of the frame-size bound.
const maxBatchOps = 4096

// enc is an append-only little-endian encoder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string) {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}
func (e *enc) stat(st fsapi.Stat) {
	e.u32(st.Ino)
	e.u16(st.Mode)
	e.u16(st.Nlink)
	e.u64(uint64(st.Size))
	e.u64(st.Mtime)
	e.u64(st.Ctime)
}

// dec is an error-sticky little-endian decoder; after the first short read
// every subsequent call returns zero values and err() reports the failure.
type dec struct {
	b   []byte
	bad bool
}

func (d *dec) take(n int) []byte {
	if d.bad || len(d.b) < n {
		d.bad = true
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}
func (d *dec) u8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}
func (d *dec) u16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}
func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}
func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}
func (d *dec) str() string { return string(d.take(int(d.u16()))) }
func (d *dec) bytes() []byte {
	n := d.u32()
	if n > maxFrame {
		d.bad = true
		return nil
	}
	return d.take(int(n))
}
func (d *dec) stat() fsapi.Stat {
	return fsapi.Stat{
		Ino:   d.u32(),
		Mode:  d.u16(),
		Nlink: d.u16(),
		Size:  int64(d.u64()),
		Mtime: d.u64(),
		Ctime: d.u64(),
	}
}
func (d *dec) err() error {
	if d.bad {
		return fmt.Errorf("fswire: truncated message: %w", fserr.ErrInvalid)
	}
	return nil
}

// BatchEntry is one write inside a tWriteBatch frame.
type BatchEntry struct {
	Off  int64
	Data []byte
}

// BatchWriteResult is the per-entry outcome of a batched write. Entries are
// applied in order and each records its own result, so a batch's outcomes are
// exactly those of the same WriteAts issued one at a time.
type BatchWriteResult struct {
	N   int
	Err error
}

// BatchWriter is an optional backend capability: apply a write batch as one
// uninterrupted critical section. Locked implements it (one lock hold for the
// whole batch), giving single-threaded backends per-FID atomicity; backends
// without it fall back to sequential WriteAt calls, which are still
// contiguous with respect to the connection's own operation stream because
// the server runs a connection's requests one at a time, in arrival order.
type BatchWriter interface {
	WriteAtBatch(fd fsapi.FD, entries []BatchEntry) []BatchWriteResult
}

// applyBatchSeq applies batch entries in order via plain WriteAt calls.
func applyBatchSeq(fs fsapi.FS, fd fsapi.FD, entries []BatchEntry) []BatchWriteResult {
	results := make([]BatchWriteResult, len(entries))
	for i, be := range entries {
		n, err := fs.WriteAt(fd, be.Off, be.Data)
		results[i] = BatchWriteResult{N: n, Err: err}
	}
	return results
}

// errnoWord encodes an operation error for the response prefix.
func errnoWord(err error) uint32 { return uint32(int32(fserr.Errno(err))) }

// errnoErr decodes the response prefix back into the taxonomy sentinel.
func errnoErr(w uint32) error { return fserr.FromErrno(int(int32(w))) }

// writeFrame buffers one frame: the 7-byte header is encoded straight into
// w's free space and the payload follows, so a frame is never assembled in a
// buffer of its own. Callers serialize access to w and decide when it
// flushes.
func writeFrame(w *bufio.Writer, typ uint8, tag uint16, payload []byte) (int, error) {
	if len(payload)+frameHeader > maxFrame {
		return 0, fmt.Errorf("fswire: frame too large (%d bytes): %w", len(payload), fserr.ErrTooBig)
	}
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(frameHeader+len(payload)))
	hdr = append(hdr, typ)
	hdr = binary.LittleEndian.AppendUint16(hdr, tag)
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return 4 + frameHeader + len(payload), nil
}

// readFrame reads one frame, enforcing the size bound before allocating.
func readFrame(r *bufio.Reader) (typ uint8, tag uint16, payload []byte, n int, err error) {
	szb, err := r.Peek(4)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	size := binary.LittleEndian.Uint32(szb)
	_, _ = r.Discard(4) // cannot fail: Peek just buffered these 4 bytes
	if size < frameHeader || size > maxFrame {
		return 0, 0, nil, 4, fmt.Errorf("fswire: bad frame size %d: %w", size, fserr.ErrInvalid)
	}
	body := make([]byte, size)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, 4, err
	}
	return body[0], binary.LittleEndian.Uint16(body[1:3]), body[3:], 4 + int(size), nil
}
