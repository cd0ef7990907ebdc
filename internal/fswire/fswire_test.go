package fswire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
	"repro/internal/telemetry"
	"repro/internal/volmgr"
	"repro/internal/workload"
)

// serve starts a server over backend on a loopback listener and returns its
// address. Cleanup closes everything.
func serve(t *testing.T, backend Backend, opts ...ServerOption) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, ln, backend, opts...)
}

// serveOn is serve over a caller-supplied listener.
func serveOn(t *testing.T, ln net.Listener, backend Backend, opts ...ServerOption) string {
	t.Helper()
	srv := NewServer(backend, opts...)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// newBase formats a device and mounts the raw base filesystem over it.
func newBase(t *testing.T, blocks uint32) (*basefs.FS, *disklayout.Superblock) {
	t.Helper()
	dev := blockdev.NewMem(blocks)
	sb, err := mkfs.Format(dev, mkfs.Options{NumInodes: 1024, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := basefs.Mount(dev, basefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Kill)
	return fs, sb
}

// dial attaches a client, registering cleanup.
func dial(t *testing.T, addr, volume string) *Client {
	t.Helper()
	c, err := Dial(addr, volume)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Hangup() })
	return c
}

// TestClientMatchesModelOverLoopback is the acceptance check: the remote
// client run through the §4.3 differential suite against the specification
// model must produce identical per-op outcomes (errno, fd, ino, byte counts)
// and an identical final state dump — descriptor numbers included, thanks to
// client-side lowest-free-first FID allocation.
func TestClientMatchesModelOverLoopback(t *testing.T) {
	for _, profile := range workload.Profiles() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s-%d", profile, seed), func(t *testing.T) {
				base, sb := newBase(t, 16384)
				addr := serve(t, Single(Locked(base)))
				client := dial(t, addr, "")
				trace := workload.Generate(workload.Config{
					Profile:    profile,
					Seed:       seed,
					NumOps:     500,
					Superblock: sb,
				})
				disc, err := difftest.VerifyEquivalence(client, model.New(sb), trace)
				if err != nil {
					t.Fatalf("equivalence run failed: %v", err)
				}
				for i, d := range disc {
					if i >= 10 {
						t.Errorf("... and %d more", len(disc)-10)
						break
					}
					t.Errorf("discrepancy: %s", d)
				}
			})
		}
	}
}

// TestErrnoRoundTrip drives real error paths end to end and checks the
// taxonomy sentinel (not just the errno class) comes back out.
func TestErrnoRoundTrip(t *testing.T) {
	base, _ := newBase(t, 4096)
	addr := serve(t, Single(Locked(base)))
	c := dial(t, addr, "")

	if err := c.Mkdir("/a/b", 0o755); !errors.Is(err, fserr.ErrNotExist) {
		t.Errorf("mkdir missing parent = %v", err)
	}
	if err := c.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/a", 0o755); !errors.Is(err, fserr.ErrExist) {
		t.Errorf("mkdir existing = %v", err)
	}
	if _, err := c.Open("/a"); !errors.Is(err, fserr.ErrIsDir) {
		t.Errorf("open dir = %v", err)
	}
	if err := c.Close(99); !errors.Is(err, fserr.ErrBadFD) {
		t.Errorf("close unknown fd = %v", err)
	}
	if _, err := c.ReadAt(99, 0, 16); !errors.Is(err, fserr.ErrBadFD) {
		t.Errorf("read unknown fd = %v", err)
	}
	if err := c.Mkdir("bad", 0o755); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("relative path = %v", err)
	}
}

// overloadFS sheds everything, standing in for a volume with an empty token
// bucket.
type overloadFS struct{ fsapi.FS }

func (o overloadFS) Mkdir(string, uint16) error { return fserr.ErrOverloaded }

// TestOverloadRoundTrip checks admission-control shedding crosses the wire
// as itself: an application-visible retry signal, not a fault.
func TestOverloadRoundTrip(t *testing.T) {
	base, _ := newBase(t, 4096)
	addr := serve(t, Single(overloadFS{Locked(base)}))
	c := dial(t, addr, "")
	err := c.Mkdir("/x", 0o755)
	if !errors.Is(err, fserr.ErrOverloaded) {
		t.Fatalf("shed op = %v, want ErrOverloaded", err)
	}
	if !fserr.IsUserError(err) || fserr.IsFault(err) {
		t.Fatalf("shed op classified wrong: %v", err)
	}
}

// TestVolumesBackend checks attach-by-name against a volmgr fleet and tenant
// isolation through the wire.
func TestVolumesBackend(t *testing.T) {
	m, err := volmgr.New(volmgr.Config{PoolBlocks: 2 * 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	for i := 0; i < 2; i++ {
		if _, err := m.Create(fmt.Sprintf("vol%d", i), volmgr.VolumeConfig{Blocks: 8192}); err != nil {
			t.Fatal(err)
		}
	}
	addr := serve(t, Volumes(m))

	c0 := dial(t, addr, "vol0")
	c1 := dial(t, addr, "vol1")
	if err := c0.Mkdir("/only-on-0", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Stat("/only-on-0"); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatalf("tenant isolation broken: %v", err)
	}
	if _, err := c0.Stat("/only-on-0"); err != nil {
		t.Fatalf("own write invisible: %v", err)
	}
	if _, err := Dial(addr, "no-such-volume"); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatalf("unknown volume attach = %v", err)
	}
}

// TestRecoveryMaskedOverWire mounts a supervised filesystem with a recurring
// deterministic crash bug and drives it remotely: the recovery must stay
// invisible at the client — the operation succeeds, it just took a recovery
// to get there.
func TestRecoveryMaskedOverWire(t *testing.T) {
	dev := blockdev.NewMem(8192)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 1024, JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	reg := faultinject.NewRegistry(7)
	reg.Arm(&faultinject.Specimen{
		ID: "wire-crash", Class: faultinject.Crash,
		Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "box",
	})
	sup, err := core.Mount(dev, core.Config{Base: basefs.Options{Injector: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()

	addr := serve(t, Single(sup))
	c := dial(t, addr, "")
	for i := 0; i < 3; i++ {
		if err := c.Mkdir(fmt.Sprintf("/box%d", i), 0o755); err != nil {
			t.Fatalf("mkdir box%d over wire = %v (recovery leaked)", i, err)
		}
	}
	st := sup.Stats()
	if st.Recoveries < 3 {
		t.Errorf("recoveries = %d, want >= 3", st.Recoveries)
	}
	if st.AppFailures != 0 {
		t.Errorf("app-visible failures = %d, want 0", st.AppFailures)
	}
}

// TestConcurrentClients hammers one served volume from many connections and
// many goroutines per connection; tagged requests and the FID table must not
// cross streams (run under -race in CI).
func TestConcurrentClients(t *testing.T) {
	dev := blockdev.NewMem(16384)
	if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 2048, JournalBlocks: 64}); err != nil {
		t.Fatal(err)
	}
	sup, err := core.Mount(dev, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()
	addr := serve(t, Single(sup))

	const clients, workers, files = 4, 3, 8
	var wg sync.WaitGroup
	errc := make(chan error, clients*workers)
	for ci := 0; ci < clients; ci++ {
		c := dial(t, addr, "")
		root := fmt.Sprintf("/c%d", ci)
		if err := c.Mkdir(root, 0o755); err != nil {
			t.Fatal(err)
		}
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(c *Client, dir string) {
				defer wg.Done()
				if err := c.Mkdir(dir, 0o755); err != nil {
					errc <- fmt.Errorf("mkdir %s: %w", dir, err)
					return
				}
				for fi := 0; fi < files; fi++ {
					p := fmt.Sprintf("%s/f%d", dir, fi)
					fd, err := c.Create(p, 0o644)
					if err != nil {
						errc <- fmt.Errorf("create %s: %w", p, err)
						return
					}
					payload := []byte(p)
					if _, err := c.WriteAt(fd, 0, payload); err != nil {
						errc <- fmt.Errorf("write %s: %w", p, err)
						return
					}
					got, err := c.ReadAt(fd, 0, len(payload)+8)
					if err != nil {
						errc <- fmt.Errorf("read %s: %w", p, err)
						return
					}
					if string(got) != p {
						errc <- fmt.Errorf("read %s = %q", p, got)
						return
					}
					if err := c.Close(fd); err != nil {
						errc <- fmt.Errorf("close %s: %w", p, err)
						return
					}
				}
			}(c, fmt.Sprintf("%s/w%d", root, wi))
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestTelemetry checks the fswire.* instruments move: conns tracks attached
// connections, ops/bytes count traffic, errs counts nonzero errnos.
func TestTelemetry(t *testing.T) {
	base, _ := newBase(t, 4096)
	sink := telemetry.New()
	addr := serve(t, Single(Locked(base)), WithTelemetry(sink))

	c := dial(t, addr, "")
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d", 0o755); !errors.Is(err, fserr.ErrExist) {
		t.Fatal(err)
	}
	if got := sink.Gauge("fswire.conns").Value(); got != 1 {
		t.Errorf("conns = %d, want 1", got)
	}
	if got := sink.Counter("fswire.ops").Value(); got < 3 { // attach + 2 mkdirs
		t.Errorf("ops = %d, want >= 3", got)
	}
	if got := sink.Counter("fswire.errs").Value(); got != 1 {
		t.Errorf("errs = %d, want 1", got)
	}
	if got := sink.Counter("fswire.bytes").Value(); got == 0 {
		t.Error("bytes = 0")
	}
}

// TestApplyTraceThroughOplog checks the client composes with the oplog
// executor — the seam every driver in the repo uses.
func TestApplyTraceThroughOplog(t *testing.T) {
	base, sb := newBase(t, 8192)
	addr := serve(t, Single(Locked(base)))
	c := dial(t, addr, "")
	trace := workload.Generate(workload.Config{
		Profile:    workload.MetaHeavy,
		Seed:       3,
		NumOps:     200,
		Superblock: sb,
	})
	for _, op := range trace {
		cl := op.Clone()
		cl.Errno, cl.RetFD, cl.RetIno, cl.RetN = 0, 0, 0, 0
		_ = oplog.Apply(c, cl)
	}
	remote, err := difftest.DumpState(c)
	if err != nil {
		t.Fatal(err)
	}
	local, err := difftest.DumpState(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range difftest.CompareStates(remote, local) {
		t.Errorf("state mismatch: %s", d)
	}
}
