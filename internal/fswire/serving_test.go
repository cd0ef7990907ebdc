package fswire

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fserr"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
)

// countingConn counts Write calls: with buffered frame I/O, one Write is one
// write syscall.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands the server connections that count their writes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

// modelBackend serves the specification model, which starts no goroutines
// and does no I/O, so wire cost is all a test measures.
func modelBackend(t *testing.T) Backend {
	t.Helper()
	sb, err := mkfs.Format(blockdev.NewMem(4096), mkfs.Options{NumInodes: 1024, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	return Single(Locked(model.New(sb)))
}

// countedClient attaches a client to a model server with both sides of the
// connection counting their writes; the attach's writes are not counted.
func countedClient(t *testing.T, cfg ClientConfig) (c *Client, clientWrites, serverWrites *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clientWrites, serverWrites = new(atomic.Int64), new(atomic.Int64)
	addr := serveOn(t, countingListener{Listener: ln, writes: serverWrites}, modelBackend(t))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err = NewClientConfig(countingConn{Conn: conn, writes: clientWrites}, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Hangup() })
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	clientWrites.Store(0)
	serverWrites.Store(0)
	return c, clientWrites, serverWrites
}

// TestFlushSyncCallOneWritePerSide: a synchronous call flushes its request
// once, when it blocks for the reply, and the server flushes the reply once,
// when it has no further request to read.
func TestFlushSyncCallOneWritePerSide(t *testing.T) {
	c, cw, sw := countedClient(t, ClientConfig{})
	if _, err := c.Stat("/d"); err != nil {
		t.Fatal(err)
	}
	if n := cw.Load(); n != 1 {
		t.Errorf("client writes for one Stat = %d, want 1", n)
	}
	if n := sw.Load(); n != 1 {
		t.Errorf("server writes for one Stat = %d, want 1", n)
	}
}

// TestFlushPipelinedBurstOneWrite: unwaited submissions stay buffered, the
// first Wait sends the whole burst in one write, and the server, reading the
// burst back to back, answers it in at most two.
func TestFlushPipelinedBurstOneWrite(t *testing.T) {
	c, cw, sw := countedClient(t, ClientConfig{})
	const burst = 32
	ops := make([]*oplog.Op, burst)
	futs := make([]interface{ Wait() }, burst)
	for i := range ops {
		ops[i] = &oplog.Op{Kind: oplog.KStatProbe, Path: "/d"}
		futs[i] = c.SubmitOp(ops[i])
	}
	if n := cw.Load(); n != 0 {
		t.Errorf("client writes before any Wait = %d, want 0", n)
	}
	for i, f := range futs {
		f.Wait()
		if ops[i].Errno != 0 || ops[i].RetIno == 0 {
			t.Fatalf("op %d: errno=%d ino=%d", i, ops[i].Errno, ops[i].RetIno)
		}
	}
	if n := cw.Load(); n != 1 {
		t.Errorf("client writes for %d pipelined ops = %d, want 1", burst, n)
	}
	if n := sw.Load(); n < 1 || n > 2 {
		t.Errorf("server writes for %d pipelined ops = %d, want 1 or 2", burst, n)
	}
}

// TestFlushFullWindowBeforeBlocking: a submit that finds the window full
// must flush the buffered frames it is waiting on, or it blocks forever.
func TestFlushFullWindowBeforeBlocking(t *testing.T) {
	c, _, _ := countedClient(t, ClientConfig{Window: 2})
	ops := make([]*oplog.Op, 3)
	futs := make([]interface{ Wait() }, len(ops))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range ops {
			ops[i] = &oplog.Op{Kind: oplog.KStatProbe, Path: "/d"}
			futs[i] = c.SubmitOp(ops[i])
		}
		for _, f := range futs {
			f.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("third submit on a full window never completed")
	}
	for i, op := range ops {
		if op.Errno != 0 {
			t.Errorf("op %d: errno=%d", i, op.Errno)
		}
	}
}

// TestStreamChunkRacesHangup is the regression test for a stream chunk
// delivered after its channel was closed: readLoop handed a non-final chunk
// over outside the client lock, so a Hangup in between closed the channel
// first and the send panicked. Run under -race in CI.
func TestStreamChunkRacesHangup(t *testing.T) {
	base, _ := newBase(t, 8192)
	addr := serve(t, Single(Locked(base)))
	setup := dial(t, addr, "")
	fd, err := setup.Create("/big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10
	if _, err := setup.WriteAt(fd, 0, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if err := setup.Close(fd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		c := dialCfg(t, addr, "", ClientConfig{StreamChunk: 512})
		fd, err := c.Open("/big")
		if err != nil {
			t.Fatal(err)
		}
		readErr := make(chan error, 1)
		go func() {
			for {
				if _, err := c.ReadAt(fd, 0, size); err != nil {
					readErr <- err
					return
				}
			}
		}()
		time.Sleep(time.Duration(i%6) * 200 * time.Microsecond)
		c.Hangup()
		if err := <-readErr; !errors.Is(err, fserr.ErrIO) {
			t.Fatalf("read racing hangup = %v, want ErrIO", err)
		}
	}
}

// settledGoroutines waits until the goroutine count stops moving (earlier
// tests' connections finish tearing down) and returns it.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 5 {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// expectGoroutines polls until the goroutine count is exactly want.
func expectGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, n, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServedGoroutinesPerConnection is the fswire goroutine bound: one
// goroutine per connection on each side (the server's handleConn, the
// client's readLoop), none per request, all gone after Hangup and Close.
func TestServedGoroutinesPerConnection(t *testing.T) {
	backend := modelBackend(t)
	base := settledGoroutines()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }() // +1: the accept loop
	expectGoroutines(t, base+1, "serving, no connections")

	const conns, burst = 4, 32
	clients := make([]*Client, conns)
	for i := range clients {
		c, err := Dial(ln.Addr().String(), "")
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	expectGoroutines(t, base+1+2*conns, "attached")

	// Requests in flight add no goroutines on either side.
	var futs []interface{ Wait() }
	for _, c := range clients {
		for j := 0; j < burst; j++ {
			futs = append(futs, c.SubmitOp(&oplog.Op{Kind: oplog.KMkdir, Path: "/x", Perm: 0o755}))
		}
	}
	if n := runtime.NumGoroutine(); n != base+1+2*conns {
		t.Errorf("with %d requests submitted: %d goroutines, want %d", conns*burst, n, base+1+2*conns)
	}
	for _, f := range futs {
		f.Wait()
	}

	for _, c := range clients {
		c.Hangup()
	}
	expectGoroutines(t, base+1, "after Hangup")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, base, "after Close")
}

// TestServedStatAllocs is the allocation budget of one synchronous Stat
// round trip over loopback, both sides counted (the server runs in this
// process). With a writer goroutine in the client, an executor in the
// server and every frame copied whole, the round trip made 17 allocations.
// Writing frames in place (header into the buffer's free space, no copy),
// reusing the server's response buffer and keeping the frame header and the
// client's decoder off the heap brought it to 8: the request encoding, the
// call and its channel, one frame body per side, the server's path string,
// and two in the model's path walk.
func TestServedStatAllocs(t *testing.T) {
	addr := serve(t, modelBackend(t))
	c := dial(t, addr, "")
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.Stat("/d"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Stat round trip: %.1f allocations, want <= 8", allocs)
	}
	t.Logf("Stat round trip: %.1f allocations", allocs)
}
