package fswire

import (
	"bufio"
	"errors"
	"net"
	"sync"

	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/telemetry"
	"repro/internal/volmgr"
)

// Backend resolves an attach-time volume name to the filesystem that will
// serve the connection. The returned filesystem must be safe for concurrent
// use (a supervised core.FS or a volmgr tenant is; wrap single-threaded
// implementations like the shadow or the model with Locked).
type Backend func(volume string) (fsapi.FS, error)

// Single serves one filesystem under every volume name, including "".
func Single(fs fsapi.FS) Backend {
	return func(string) (fsapi.FS, error) { return fs, nil }
}

// Volumes serves a volmgr fleet: the attach name selects the tenant. Unknown
// or unmounted volumes fail the attach with the manager's error
// (fserr.ErrNotExist / fserr.ErrInvalid), which travels back as the attach
// errno.
func Volumes(m *volmgr.Manager) Backend {
	return func(name string) (fsapi.FS, error) { return m.Get(name) }
}

// Server serves the fswire protocol over any net.Listener.
type Server struct {
	backend Backend

	conns   *telemetry.Gauge   // fswire.conns: connections currently attached
	ops     *telemetry.Counter // fswire.ops: requests served
	bytes   *telemetry.Counter // fswire.bytes: frame bytes in + out
	errs    *telemetry.Counter // fswire.errs: responses carrying a nonzero errno
	batched *telemetry.Counter // fswire.batch.writes: writes carried inside tWriteBatch frames
	chunks  *telemetry.Counter // fswire.stream.chunks: tReadStream chunk frames sent

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	open      map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithTelemetry installs the sink carrying the fswire.* instruments.
func WithTelemetry(s *telemetry.Sink) ServerOption {
	return func(srv *Server) {
		if s != nil {
			srv.conns = s.Gauge("fswire.conns")
			srv.ops = s.Counter("fswire.ops")
			srv.bytes = s.Counter("fswire.bytes")
			srv.errs = s.Counter("fswire.errs")
			srv.batched = s.Counter("fswire.batch.writes")
			srv.chunks = s.Counter("fswire.stream.chunks")
		}
	}
}

// NewServer builds a server over backend.
func NewServer(backend Backend, opts ...ServerOption) *Server {
	s := &Server{
		backend:   backend,
		listeners: make(map[net.Listener]struct{}),
		open:      make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve accepts connections on ln until the listener fails or Close is
// called; Close makes Serve return nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("fswire: server closed")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.open[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Close stops every listener, hangs up every connection, and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	for c := range s.open {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// srvConn is one connection's state: the attached filesystem and the FID
// table mapping server-assigned FIDs to server-side descriptors. Only the
// connection's own goroutine touches it, so none of it is locked.
type srvConn struct {
	s  *Server
	bw *bufio.Writer // response stream, flushed before the reader blocks
	// out is the response payload buffer, reused across requests: a response
	// is copied into bw before the next request is decoded.
	out enc

	fs      fsapi.FS
	fids    map[uint32]fsapi.FD
	fidScan uint32 // low-water mark: every FID below it is bound
}

// maxReusedOut caps the response buffer kept between requests; a larger
// response (a big read) gets a buffer of its own that is then dropped.
const maxReusedOut = 64 << 10

// handleConn runs one connection. Its goroutine reads each request and
// executes it before reading the next, strictly in arrival order: this is
// the ordering contract pipelined clients rely on — a submitted stream of
// operations executes exactly as if issued sequentially (inode and
// descriptor allocation order included). Responses carry tags, so the client
// may await them out of order.
//
// Responses accumulate in a buffered stream that is flushed only before the
// goroutine could block on a read, i.e. when no further request is already
// buffered: a pipelined burst is answered in about one write syscall, and a
// lone synchronous request in exactly one.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	s.conns.Add(1)
	defer s.conns.Add(-1)
	sc := &srvConn{s: s, bw: bufio.NewWriterSize(c, 64<<10), fids: make(map[uint32]fsapi.FD)}
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		typ, tag, payload, nr, err := readFrame(br)
		if err != nil {
			break
		}
		s.bytes.Add(int64(nr))
		switch typ {
		case tAttach:
			sc.respond(typ, tag, sc.attach(payload))
		case tReadStream:
			sc.streamRead(tag, payload)
		default:
			sc.respond(typ, tag, sc.handle(typ, payload))
		}
		if br.Buffered() == 0 && sc.bw.Flush() != nil {
			break
		}
	}
	_ = sc.bw.Flush() // best effort: the peer stopped sending and may be gone

	if sc.fs != nil {
		for _, fd := range sc.fids {
			_ = sc.fs.Close(fd)
		}
	}
	c.Close()
	s.mu.Lock()
	delete(s.open, c)
	s.mu.Unlock()
}

// respond buffers one response frame and maintains the op/byte/err counters.
func (sc *srvConn) respond(typ uint8, tag uint16, payload []byte) {
	sc.s.ops.Inc()
	if len(payload) >= 4 && errnoErr(uint32(payload[0])|uint32(payload[1])<<8|uint32(payload[2])<<16|uint32(payload[3])<<24) != nil {
		sc.s.errs.Inc()
	}
	sc.writeRaw(typ, tag, payload)
	if cap(sc.out.b) > maxReusedOut {
		sc.out.b = nil
	}
}

// resp resets the reused response buffer and returns its encoder.
func (sc *srvConn) resp() *enc {
	sc.out.b = sc.out.b[:0]
	return &sc.out
}

// respErr builds an errno-only response payload.
func (sc *srvConn) respErr(err error) []byte {
	e := sc.resp()
	e.u32(errnoWord(err))
	return e.b
}

// streamRead serves one tReadStream request: the read is decomposed into
// chunk-bounded ReadAts and each chunk goes back as its own frame carrying
// the request's tag, an errno word, and a more-flag — so a read of any size
// streams under the frame bound instead of buffering. The window sliding is
// the transport's: the client sizes its reassembly buffer for every chunk
// the request can produce, and TCP flow control paces the server. A short
// read ends the stream (EOF); a chunk-level error ends it with the errno and
// the client discards the prefix, matching a single ReadAt's all-or-nothing
// contract.
func (sc *srvConn) streamRead(tag uint16, body []byte) {
	sc.s.ops.Inc()
	fs := sc.fs
	fail := func(err error) {
		sc.s.errs.Inc()
		e := &enc{}
		e.u32(errnoWord(err))
		e.u8(0) // more = false
		e.bytes(nil)
		sc.writeRaw(tReadStream, tag, e.b)
	}
	if fs == nil {
		fail(fserr.ErrInvalid)
		return
	}
	d := &dec{b: body}
	fid, off, n, chunk := d.u32(), int64(d.u64()), d.u32(), d.u32()
	if d.err() != nil || chunk == 0 || chunk > maxFrame-64 {
		fail(fserr.ErrInvalid)
		return
	}
	fd, ok := sc.fids[fid]
	if !ok {
		fail(fserr.ErrBadFD)
		return
	}
	remaining := int(n)
	for {
		want := remaining
		if want > int(chunk) {
			want = int(chunk)
		}
		data, err := fs.ReadAt(fd, off, want)
		if err != nil {
			fail(err)
			return
		}
		remaining -= len(data)
		final := len(data) < want || remaining == 0
		e := &enc{}
		e.u32(errnoWord(nil))
		if final {
			e.u8(0)
		} else {
			e.u8(1)
		}
		e.bytes(data)
		sc.s.chunks.Inc()
		if !sc.writeRaw(tReadStream, tag, e.b) || final {
			return
		}
		off += int64(len(data))
	}
}

// writeRaw buffers one frame on the response stream, maintaining the byte
// counter; it reports whether the write succeeded so a stream can stop
// flooding a dead connection. (With buffering, a failure may only surface at
// the next flush or once the buffer spills — the connection teardown path
// covers whatever a stream sends in the meantime.)
func (sc *srvConn) writeRaw(typ uint8, tag uint16, payload []byte) bool {
	n, err := writeFrame(sc.bw, typ, tag, payload)
	if err == nil {
		sc.s.bytes.Add(int64(n))
		return true
	}
	return false
}

// attach resolves the volume name and binds the connection to it.
func (sc *srvConn) attach(body []byte) []byte {
	d := &dec{b: body}
	name := d.str()
	if d.err() != nil {
		return sc.respErr(fserr.ErrInvalid)
	}
	fs, err := sc.s.backend(name)
	if err != nil {
		return sc.respErr(err)
	}
	if sc.fs != nil {
		return sc.respErr(fserr.ErrBusy) // one attach per connection
	}
	sc.fs = fs
	return sc.respErr(nil)
}

// allocFID binds fd to the lowest free FID of this connection and returns
// it. Lowest-free-first on success, freed on terminal close: exactly the
// POSIX descriptor discipline of a local run, so a sequential trace served
// remotely yields the same descriptor numbers a local application would see.
func (sc *srvConn) allocFID(fd fsapi.FD) uint32 {
	// Scan from the low-water mark: every FID below it is bound, and
	// releaseFID drops the mark when a lower number frees — lowest-free
	// results at amortized O(1) instead of O(open descriptors).
	fid := sc.fidScan
	for {
		if _, used := sc.fids[fid]; !used {
			break
		}
		fid++
	}
	sc.fids[fid] = fd
	sc.fidScan = fid + 1
	return fid
}

// releaseFID unbinds a FID and lowers the allocation mark.
func (sc *srvConn) releaseFID(fid uint32) {
	delete(sc.fids, fid)
	if fid < sc.fidScan {
		sc.fidScan = fid
	}
}

// handle executes one non-attach request and returns the response payload.
func (sc *srvConn) handle(typ uint8, body []byte) []byte {
	fs := sc.fs
	if fs == nil {
		return sc.respErr(fserr.ErrInvalid) // operation before attach
	}
	d := &dec{b: body}
	e := sc.resp()
	switch typ {
	case tMkdir:
		path, perm := d.str(), d.u16()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		err := fs.Mkdir(path, perm)
		e.u32(errnoWord(err))
		// On success the response carries the new directory's inode (the
		// Stat probe oplog.Apply performs), 0 if the probe failed.
		var ino uint32
		if err == nil {
			if st, perr := fs.Stat(path); perr == nil {
				ino = st.Ino
			}
		}
		e.u32(ino)
	case tRmdir:
		path := d.str()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		e.u32(errnoWord(fs.Rmdir(path)))
	case tCreate, tOpen:
		path := d.str()
		perm := uint16(0)
		if typ == tCreate {
			perm = d.u16()
		}
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		var fd fsapi.FD
		var err error
		if typ == tCreate {
			fd, err = fs.Create(path, perm)
		} else {
			fd, err = fs.Open(path)
		}
		if err != nil {
			return sc.respErr(err)
		}
		// The server assigns the FID, lowest-free-first per connection,
		// mirroring the descriptor discipline a local run would have. Because
		// requests run in arrival order, allocation happens at
		// the moment the outcome is known — so pipelined clients need no
		// descriptor barrier at all: they learn the number from the response.
		fid := sc.allocFID(fd)
		// The inode probe oplog.Apply would issue rides in the response,
		// saving pipelined clients a frame; 0 means the probe failed.
		var ino uint32
		if st, perr := fs.Fstat(fd); perr == nil {
			ino = st.Ino
		}
		e.u32(errnoWord(nil))
		e.u32(fid)
		e.u32(ino)
	case tClose:
		fid := d.u32()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		fd, ok := sc.fids[fid]
		if !ok {
			return sc.respErr(fserr.ErrBadFD)
		}
		err := fs.Close(fd)
		// Drop the binding on success or EBADF (the server-side descriptor
		// is gone either way); keep it for retryable outcomes like a shed,
		// mirroring the client's release rule so the two tables agree.
		if err == nil || errors.Is(err, fserr.ErrBadFD) {
			sc.releaseFID(fid)
		}
		e.u32(errnoWord(err))
	case tRead:
		fid, off, n := d.u32(), int64(d.u64()), d.u32()
		if d.err() != nil || n > maxFrame-64 {
			return sc.respErr(fserr.ErrInvalid)
		}
		fd, ok := sc.fids[fid]
		if !ok {
			return sc.respErr(fserr.ErrBadFD)
		}
		data, err := fs.ReadAt(fd, off, int(n))
		if err != nil {
			return sc.respErr(err)
		}
		e.u32(errnoWord(nil))
		e.bytes(data)
	case tWrite:
		fid, off, data := d.u32(), int64(d.u64()), d.bytes()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		fd, ok := sc.fids[fid]
		if !ok {
			return sc.respErr(fserr.ErrBadFD)
		}
		n, err := fs.WriteAt(fd, off, data)
		if err != nil {
			return sc.respErr(err)
		}
		e.u32(errnoWord(nil))
		e.u32(uint32(n))
	case tWriteBatch:
		fid, count := d.u32(), d.u32()
		if d.err() != nil || count == 0 || count > maxBatchOps {
			return sc.respErr(fserr.ErrInvalid)
		}
		entries := make([]BatchEntry, 0, count)
		for i := uint32(0); i < count; i++ {
			off := int64(d.u64())
			data := d.bytes()
			if d.err() != nil {
				return sc.respErr(fserr.ErrInvalid)
			}
			entries = append(entries, BatchEntry{Off: off, Data: data})
		}
		fd, ok := sc.fids[fid]
		if !ok {
			return sc.respErr(fserr.ErrBadFD)
		}
		// Entries execute in order, each recording its own result — the
		// outcomes are exactly those of the same WriteAts issued one at a
		// time. A BatchWriter backend applies them in one critical section.
		var results []BatchWriteResult
		if bw, ok := fs.(BatchWriter); ok {
			results = bw.WriteAtBatch(fd, entries)
		} else {
			results = applyBatchSeq(fs, fd, entries)
		}
		sc.s.batched.Add(int64(len(entries)))
		e.u32(errnoWord(nil))
		e.u32(uint32(len(results)))
		for _, r := range results {
			e.u32(errnoWord(r.Err))
			e.u32(uint32(r.N))
		}
	case tTrunc:
		path, size := d.str(), int64(d.u64())
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		e.u32(errnoWord(fs.Truncate(path, size)))
	case tUnlink:
		path := d.str()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		e.u32(errnoWord(fs.Unlink(path)))
	case tRename:
		oldPath, newPath := d.str(), d.str()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		e.u32(errnoWord(fs.Rename(oldPath, newPath)))
	case tLink:
		oldPath, newPath := d.str(), d.str()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		e.u32(errnoWord(fs.Link(oldPath, newPath)))
	case tSymlink:
		target, linkPath := d.str(), d.str()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		e.u32(errnoWord(fs.Symlink(target, linkPath)))
	case tReadlink:
		path := d.str()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		target, err := fs.Readlink(path)
		if err != nil {
			return sc.respErr(err)
		}
		e.u32(errnoWord(nil))
		e.str(target)
	case tStat:
		path := d.str()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		st, err := fs.Stat(path)
		if err != nil {
			return sc.respErr(err)
		}
		e.u32(errnoWord(nil))
		e.stat(st)
	case tFstat:
		fid := d.u32()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		fd, ok := sc.fids[fid]
		if !ok {
			return sc.respErr(fserr.ErrBadFD)
		}
		st, err := fs.Fstat(fd)
		if err != nil {
			return sc.respErr(err)
		}
		e.u32(errnoWord(nil))
		e.stat(st)
	case tReaddir:
		path := d.str()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		ents, err := fs.Readdir(path)
		if err != nil {
			return sc.respErr(err)
		}
		e.u32(errnoWord(nil))
		e.u32(uint32(len(ents)))
		for _, de := range ents {
			e.str(de.Name)
			e.u32(de.Ino)
			e.u16(de.Type)
		}
	case tSetPerm:
		path, perm := d.str(), d.u16()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		e.u32(errnoWord(fs.SetPerm(path, perm)))
	case tFsync:
		fid := d.u32()
		if d.err() != nil {
			return sc.respErr(fserr.ErrInvalid)
		}
		fd, ok := sc.fids[fid]
		if !ok {
			return sc.respErr(fserr.ErrBadFD)
		}
		e.u32(errnoWord(fs.Fsync(fd)))
	case tSync:
		e.u32(errnoWord(fs.Sync()))
	default:
		return sc.respErr(fserr.ErrInvalid)
	}
	return e.b
}
