package fswire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/fsapi"
	"repro/internal/fserr"
)

// ClientConfig tunes the client's pipelining machinery. The zero value means
// defaults; every field is clamped into a sane range by normalize.
type ClientConfig struct {
	// Window is the per-connection in-flight request cap: submitting past it
	// blocks until a response retires a slot. 1 degenerates to one-at-a-time
	// (the pre-pipelining behavior).
	Window int
	// TagLimit bounds the tag space the client will allocate from. Requests
	// beyond the window never reach tag allocation, so exhaustion is only
	// possible if Window exceeds TagLimit; then the excess is shed with
	// fserr.ErrOverloaded rather than spinning.
	TagLimit int
	// BatchMaxOps caps the entries coalesced into one tWriteBatch frame by
	// the pipelined submit path. <= 1 disables write coalescing.
	BatchMaxOps int
	// BatchMaxBytes caps the total payload coalesced into one batch; a write
	// larger than this goes out as a plain tWrite.
	BatchMaxBytes int
	// StreamChunk is the chunk size for tReadStream; reads larger than one
	// chunk are streamed. <= 0 picks the default; reads never stream when
	// they fit in a single chunk.
	StreamChunk int
}

// Defaults for ClientConfig fields.
const (
	DefaultWindow        = 64
	DefaultTagLimit      = 4096
	DefaultBatchMaxOps   = 32
	DefaultBatchMaxBytes = 256 << 10
	DefaultStreamChunk   = 256 << 10
)

func (cfg ClientConfig) normalize() ClientConfig {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.TagLimit <= 0 {
		cfg.TagLimit = DefaultTagLimit
	}
	if cfg.TagLimit > 1<<16 {
		cfg.TagLimit = 1 << 16
	}
	if cfg.BatchMaxOps <= 0 {
		cfg.BatchMaxOps = DefaultBatchMaxOps
	}
	if cfg.BatchMaxBytes <= 0 {
		cfg.BatchMaxBytes = DefaultBatchMaxBytes
	}
	if cfg.BatchMaxBytes > maxFrame/2 {
		cfg.BatchMaxBytes = maxFrame / 2
	}
	if cfg.StreamChunk <= 0 {
		cfg.StreamChunk = DefaultStreamChunk
	}
	if cfg.StreamChunk > maxFrame-64 {
		cfg.StreamChunk = maxFrame - 64
	}
	return cfg
}

// Client is a remote filesystem: it speaks the fswire protocol over one
// connection and implements fsapi.FS, so everything written against that
// interface — the vfs adapter, the workload driver, the differential tester —
// runs unchanged against a served volume.
//
// FIDs (the fsapi.FD values Create and Open return) are assigned by the
// server, lowest-free-first per connection at execution time, mirroring the
// local implementations' POSIX descriptor discipline: a sequential trace run
// remotely yields the same descriptor numbers as a local run, and pipelined
// submissions need no descriptor barrier because the number is decided where
// the outcome is known. The client is safe for concurrent use — requests are
// tagged and may complete out of order — but concurrent callers forfeit
// descriptor determinism exactly as they would against a local filesystem.
//
// Beyond the synchronous fsapi.FS surface the client pipelines: SubmitOp
// (pipeline.go) fires operations without waiting, small writes coalesce into
// tWriteBatch frames, and large reads stream via tReadStream. Because the
// server executes a connection's requests strictly in arrival order, a
// pipelined run is outcome-identical to a sequential one.
type Client struct {
	c   net.Conn
	cfg ClientConfig

	// Request frames are buffered under wmu by the submitting goroutine and
	// flushed only by a goroutine about to block on the connection (flushOut):
	// a pipelined burst leaves in one write syscall, a synchronous call in
	// exactly one.
	wmu sync.Mutex
	bw  *bufio.Writer

	window chan struct{} // in-flight slots; acquire on submit, release on final response
	dead   chan struct{} // closed by fail: unblocks window waiters on a poisoned client

	mu       sync.Mutex
	idle     *sync.Cond // broadcast when pending drains to empty (Flush barrier)
	pending  map[uint16]*call
	freeTags []uint16 // retired tags, reused LIFO — O(1) allocation
	nextTag  uint32   // low-water mark: tags never yet handed out
	fids     map[uint32]bool
	closed   bool
	readErr  error

	pmu sync.Mutex // pipeline submit state (pipeline.go)
	wb  *writeBatch
}

// call is one in-flight request's completion future. Unary requests get
// exactly one payload on ch; tReadStream gets one per chunk. A closed ch
// means the connection was poisoned.
type call struct {
	tag    uint16
	stream bool
	ch     chan []byte
}

var _ fsapi.FS = (*Client)(nil)

// Dial connects to an fswire server and attaches to the named volume
// (servers backed by Single accept any name, "" by convention).
func Dial(addr, volume string) (*Client, error) {
	return DialConfig(addr, volume, ClientConfig{})
}

// DialConfig is Dial with explicit pipelining configuration.
func DialConfig(addr, volume string, cfg ClientConfig) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClientConfig(conn, volume, cfg)
}

// NewClient attaches to a volume over an existing connection, taking
// ownership of it. On error the connection is closed.
func NewClient(conn net.Conn, volume string) (*Client, error) {
	return NewClientConfig(conn, volume, ClientConfig{})
}

// NewClientConfig is NewClient with explicit pipelining configuration.
func NewClientConfig(conn net.Conn, volume string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.normalize()
	c := &Client{
		c:       conn,
		cfg:     cfg,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		window:  make(chan struct{}, cfg.Window),
		dead:    make(chan struct{}),
		pending: make(map[uint16]*call),
		fids:    make(map[uint32]bool),
	}
	c.idle = sync.NewCond(&c.mu)
	go c.readLoop()
	e := &enc{}
	e.str(volume)
	d, err := c.rpc(tAttach, e.b)
	if err == nil {
		err = d.err()
	}
	if err != nil {
		c.Hangup()
		return nil, fmt.Errorf("fswire: attach %q: %w", volume, err)
	}
	return c, nil
}

// Hangup closes the connection; in-flight and future operations fail with
// an fserr.ErrIO-wrapped error. (Not named Close: that is fsapi.FS's
// descriptor-close operation.)
func (c *Client) Hangup() error {
	err := c.c.Close()
	c.fail(fmt.Errorf("fswire: connection closed locally: %w", fserr.ErrIO))
	return err
}

// fail poisons the client: every pending and future rpc returns the
// poisoning error. It returns that error (the first poisoner wins), so
// error paths can report it without re-reading c.readErr unlocked.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.readErr
	}
	c.closed = true
	c.readErr = err
	close(c.dead)
	for tag, ch := range c.pending {
		close(ch.ch)
		delete(c.pending, tag)
	}
	c.idle.Broadcast()
	return err
}

// deadErr reports the poisoning error under the lock.
func (c *Client) deadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return fmt.Errorf("fswire: connection closed: %w", fserr.ErrIO)
}

// flushOut pushes buffered request frames to the socket. Every path that
// blocks on the connection calls it first — wait, collectStream, Flush and a
// submit that finds the window full — so no frame can sit in the buffer
// while its sender waits for the reply. A failure poisons the client.
func (c *Client) flushOut() {
	c.wmu.Lock()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("fswire: connection lost: %w", fserr.ErrIO))
	}
}

// readLoop dispatches response frames to their tag's waiter and retires
// window slots as requests complete. A payload is handed over under c.mu,
// while the call is still pending, so fail cannot close the channel first.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.c, 64<<10)
	for {
		_, tag, payload, _, err := readFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("fswire: connection lost: %w", fserr.ErrIO))
			return
		}
		c.mu.Lock()
		cl, ok := c.pending[tag]
		final := false
		if ok {
			// Never blocks for a well-behaved peer: unary calls have cap 1
			// and exactly one response; stream calls have cap for every
			// chunk they announced. More than that is a protocol error.
			select {
			case cl.ch <- payload:
			default:
				c.mu.Unlock()
				c.fail(fmt.Errorf("fswire: peer sent more responses than requested for tag %d: %w", tag, fserr.ErrIO))
				return
			}
			// A stream stays pending until its final chunk (more-flag 0 at
			// payload[4]); anything malformed also terminates it.
			final = !cl.stream || len(payload) < 5 || payload[4] == 0
			if final {
				delete(c.pending, tag)
				c.freeTags = append(c.freeTags, tag)
				if len(c.pending) == 0 {
					c.idle.Broadcast()
				}
			}
		}
		c.mu.Unlock()
		if final {
			<-c.window
		}
	}
}

// submit acquires a window slot and a tag, buffers one request frame, and
// returns the completion future. chunks > 0 marks a stream request
// expecting up to that many response frames.
func (c *Client) submit(typ uint8, payload []byte, chunks int) (*call, error) {
	// Oversize frames fail just this operation, before anything is buffered:
	// a partial frame on the wire could only poison the whole connection.
	if len(payload)+frameHeader > maxFrame {
		return nil, fmt.Errorf("fswire: frame too large (%d bytes): %w", len(payload), fserr.ErrTooBig)
	}
	select {
	case c.window <- struct{}{}:
	default:
		// Full window: the replies that free a slot may answer frames still
		// in the buffer, so flush before blocking.
		c.flushOut()
		select {
		case c.window <- struct{}{}:
		case <-c.dead:
			return nil, c.deadErr()
		}
	}
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	var tag uint16
	if k := len(c.freeTags); k > 0 {
		tag = c.freeTags[k-1]
		c.freeTags = c.freeTags[:k-1]
	} else if c.nextTag < uint32(c.cfg.TagLimit) {
		tag = uint16(c.nextTag)
		c.nextTag++
	} else {
		c.mu.Unlock()
		<-c.window
		return nil, fmt.Errorf("fswire: tag space exhausted (%d in flight): %w",
			c.cfg.TagLimit, fserr.ErrOverloaded)
	}
	depth := 1
	if chunks > depth {
		depth = chunks
	}
	cl := &call{tag: tag, stream: chunks > 0, ch: make(chan []byte, depth)}
	c.pending[tag] = cl
	c.mu.Unlock()

	c.wmu.Lock()
	_, err := writeFrame(c.bw, typ, tag, payload)
	c.wmu.Unlock()
	if err == nil {
		return cl, nil
	}
	// The frame never made it out. fail retires every pending call, this one
	// included; hand its window slot back and report the poison.
	err = c.fail(fmt.Errorf("fswire: connection lost: %w", fserr.ErrIO))
	<-c.window
	return nil, err
}

// recv returns a call's next payload, flushing the request buffer first if
// the payload is not already there; ok is false on a poisoned connection.
func (c *Client) recv(cl *call) (resp []byte, ok bool) {
	select {
	case resp, ok = <-cl.ch:
		return resp, ok
	default:
	}
	c.flushOut()
	resp, ok = <-cl.ch
	return resp, ok
}

// wait blocks for a unary call's response and returns a decoder positioned
// after the errno word, or the operation's error.
func (c *Client) wait(cl *call) (dec, error) {
	resp, ok := c.recv(cl)
	if !ok {
		return dec{}, c.deadErr()
	}
	d := dec{b: resp}
	if opErr := errnoErr(d.u32()); opErr != nil {
		return dec{}, opErr
	}
	if d.bad {
		return dec{}, fmt.Errorf("fswire: truncated response: %w", fserr.ErrIO)
	}
	return d, nil
}

// rpc performs one tagged round trip. It first flushes any coalescing write
// batch so synchronous calls keep their place in the pipeline's order.
func (c *Client) rpc(typ uint8, payload []byte) (dec, error) {
	c.pmu.Lock()
	ferr := c.flushBatchLocked()
	c.pmu.Unlock()
	if ferr != nil {
		return dec{}, ferr
	}
	cl, err := c.submit(typ, payload, 0)
	if err != nil {
		return dec{}, err
	}
	return c.wait(cl)
}

// Flush is the pipeline barrier: it submits any coalescing write batch and
// blocks until every in-flight request has completed (or the connection
// dies). The vfs adapter calls it from Sync/Fsync/Close so standard-library
// callers get write-behind ordering for free. A request another goroutine
// submits after Flush has pushed the buffer out is sent no later than that
// goroutine's own wait for it, which SubmitOp's contract guarantees happens.
func (c *Client) Flush() error {
	c.pmu.Lock()
	ferr := c.flushBatchLocked()
	c.pmu.Unlock()
	if ferr != nil {
		return ferr
	}
	c.flushOut()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) > 0 && !c.closed {
		c.idle.Wait()
	}
	if c.closed {
		return c.readErr
	}
	return nil
}

// trackFID and untrackFID maintain the client's mirror of the server's FID
// table. The server owns allocation; the mirror exists for introspection and
// leak detection only.
func (c *Client) trackFID(fid uint32) {
	c.mu.Lock()
	c.fids[fid] = true
	c.mu.Unlock()
}

func (c *Client) untrackFID(fid uint32) {
	c.mu.Lock()
	delete(c.fids, fid)
	c.mu.Unlock()
}

// closeReleasesFID reports whether a Close outcome is terminal for the FID:
// the server no longer holds (or never held) the binding, so the mirror must
// drop it too. Success and ErrBadFD mean the server-side mapping is gone
// (the server drops the binding on EBADF, keeping the two tables coherent);
// a poisoned connection means the server's whole FID table died with it. Any
// other error — a shed (ErrOverloaded), a degradation errno — means the
// server still holds the FID: keep it so a retry stays coherent.
func (c *Client) closeReleasesFID(err error) bool {
	if err == nil || errors.Is(err, fserr.ErrBadFD) {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// pathReq runs an op whose request is a single path and whose response is
// errno-only.
func (c *Client) pathReq(typ uint8, path string) error {
	e := &enc{}
	e.str(path)
	_, err := c.rpc(typ, e.b)
	return err
}

// Mkdir implements fsapi.FS.
func (c *Client) Mkdir(path string, perm uint16) error {
	e := &enc{}
	e.str(path)
	e.u16(perm)
	_, err := c.rpc(tMkdir, e.b)
	return err
}

// Rmdir implements fsapi.FS.
func (c *Client) Rmdir(path string) error { return c.pathReq(tRmdir, path) }

// Create implements fsapi.FS. The FID is server-assigned (lowest-free per
// connection, allocated in execution order) and arrives in the response
// along with the new file's inode number.
func (c *Client) Create(path string, perm uint16) (fsapi.FD, error) {
	e := &enc{}
	e.str(path)
	e.u16(perm)
	d, err := c.rpc(tCreate, e.b)
	if err != nil {
		return -1, err
	}
	fid := d.u32()
	if err := d.err(); err != nil {
		return -1, err
	}
	c.trackFID(fid)
	return fsapi.FD(fid), nil
}

// Open implements fsapi.FS.
func (c *Client) Open(path string) (fsapi.FD, error) {
	e := &enc{}
	e.str(path)
	d, err := c.rpc(tOpen, e.b)
	if err != nil {
		return -1, err
	}
	fid := d.u32()
	if err := d.err(); err != nil {
		return -1, err
	}
	c.trackFID(fid)
	return fsapi.FD(fid), nil
}

// Close implements fsapi.FS (descriptor close, not connection close). The
// mirror entry is dropped on every terminal outcome — success, ErrBadFD (the
// server holds no such binding), or a dead connection — and kept only when
// the server still holds it (e.g. the op was shed with ErrOverloaded), so a
// flaky link cannot leak low FIDs and skew descriptor determinism.
func (c *Client) Close(fd fsapi.FD) error {
	e := &enc{}
	e.u32(uint32(fd))
	_, err := c.rpc(tClose, e.b)
	if fd >= 0 && c.closeReleasesFID(err) {
		c.untrackFID(uint32(fd))
	}
	return err
}

// ReadAt implements fsapi.FS. Reads larger than one stream chunk use
// tReadStream: the server answers with a sequence of bounded chunk frames
// keyed by the request's tag and the client reassembles, so a single read
// is no longer capped by (or buffered at) the frame bound.
func (c *Client) ReadAt(fd fsapi.FD, off int64, n int) ([]byte, error) {
	if n > c.cfg.StreamChunk {
		cl, err := c.submitReadStream(fd, off, n)
		if err != nil {
			return nil, err
		}
		return c.collectStream(cl, n)
	}
	e := &enc{}
	e.u32(uint32(fd))
	e.u64(uint64(off))
	e.u32(uint32(n))
	d, err := c.rpc(tRead, e.b)
	if err != nil {
		return nil, err
	}
	data := d.bytes()
	if err := d.err(); err != nil {
		return nil, err
	}
	return data, nil
}

// submitReadStream fires a tReadStream request (flushing the write batch
// first to keep order) and returns its multi-chunk call.
func (c *Client) submitReadStream(fd fsapi.FD, off int64, n int) (*call, error) {
	c.pmu.Lock()
	ferr := c.flushBatchLocked()
	c.pmu.Unlock()
	if ferr != nil {
		return nil, ferr
	}
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

// collectStream reassembles a tReadStream response. A chunk-level error
// surfaces as the operation's error with no data, matching the
// all-or-nothing contract of a single ReadAt.
func (c *Client) collectStream(cl *call, n int) ([]byte, error) {
	buf := make([]byte, 0, n)
	for {
		resp, ok := c.recv(cl)
		if !ok {
			return nil, c.deadErr()
		}
		d := &dec{b: resp}
		errno := d.u32()
		more := d.u8()
		data := d.bytes()
		if opErr := errnoErr(errno); opErr != nil {
			return nil, opErr
		}
		if d.bad {
			return nil, fmt.Errorf("fswire: truncated stream chunk: %w", fserr.ErrIO)
		}
		buf = append(buf, data...)
		if more == 0 {
			return buf, nil
		}
	}
}

// WriteAt implements fsapi.FS.
func (c *Client) WriteAt(fd fsapi.FD, off int64, data []byte) (int, error) {
	e := &enc{}
	e.u32(uint32(fd))
	e.u64(uint64(off))
	e.bytes(data)
	d, err := c.rpc(tWrite, e.b)
	if err != nil {
		return 0, err
	}
	n := int(d.u32())
	if err := d.err(); err != nil {
		return 0, err
	}
	return n, nil
}

// Truncate implements fsapi.FS.
func (c *Client) Truncate(path string, size int64) error {
	e := &enc{}
	e.str(path)
	e.u64(uint64(size))
	_, err := c.rpc(tTrunc, e.b)
	return err
}

// Unlink implements fsapi.FS.
func (c *Client) Unlink(path string) error { return c.pathReq(tUnlink, path) }

// Rename implements fsapi.FS.
func (c *Client) Rename(oldPath, newPath string) error {
	e := &enc{}
	e.str(oldPath)
	e.str(newPath)
	_, err := c.rpc(tRename, e.b)
	return err
}

// Link implements fsapi.FS.
func (c *Client) Link(oldPath, newPath string) error {
	e := &enc{}
	e.str(oldPath)
	e.str(newPath)
	_, err := c.rpc(tLink, e.b)
	return err
}

// Symlink implements fsapi.FS.
func (c *Client) Symlink(target, linkPath string) error {
	e := &enc{}
	e.str(target)
	e.str(linkPath)
	_, err := c.rpc(tSymlink, e.b)
	return err
}

// Readlink implements fsapi.FS.
func (c *Client) Readlink(path string) (string, error) {
	e := &enc{}
	e.str(path)
	d, err := c.rpc(tReadlink, e.b)
	if err != nil {
		return "", err
	}
	target := d.str()
	if err := d.err(); err != nil {
		return "", err
	}
	return target, nil
}

// Stat implements fsapi.FS.
func (c *Client) Stat(path string) (fsapi.Stat, error) {
	e := &enc{}
	e.str(path)
	d, err := c.rpc(tStat, e.b)
	if err != nil {
		return fsapi.Stat{}, err
	}
	st := d.stat()
	if err := d.err(); err != nil {
		return fsapi.Stat{}, err
	}
	return st, nil
}

// Fstat implements fsapi.FS.
func (c *Client) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	e := &enc{}
	e.u32(uint32(fd))
	d, err := c.rpc(tFstat, e.b)
	if err != nil {
		return fsapi.Stat{}, err
	}
	st := d.stat()
	if err := d.err(); err != nil {
		return fsapi.Stat{}, err
	}
	return st, nil
}

// Readdir implements fsapi.FS.
func (c *Client) Readdir(path string) ([]fsapi.DirEntry, error) {
	e := &enc{}
	e.str(path)
	d, err := c.rpc(tReaddir, e.b)
	if err != nil {
		return nil, err
	}
	count := d.u32()
	if count > maxFrame {
		return nil, fmt.Errorf("fswire: oversized listing: %w", fserr.ErrIO)
	}
	ents := make([]fsapi.DirEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		ents = append(ents, fsapi.DirEntry{Name: d.str(), Ino: d.u32(), Type: d.u16()})
	}
	if err := d.err(); err != nil {
		return nil, err
	}
	return ents, nil
}

// SetPerm implements fsapi.FS.
func (c *Client) SetPerm(path string, perm uint16) error {
	e := &enc{}
	e.str(path)
	e.u16(perm)
	_, err := c.rpc(tSetPerm, e.b)
	return err
}

// Fsync implements fsapi.FS.
func (c *Client) Fsync(fd fsapi.FD) error {
	e := &enc{}
	e.u32(uint32(fd))
	_, err := c.rpc(tFsync, e.b)
	return err
}

// Sync implements fsapi.FS.
func (c *Client) Sync() error {
	_, err := c.rpc(tSync, nil)
	return err
}
