package volmgr

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fserr"
)

// TestConcurrentLifecycleHammer is the -race workout the issue asks for:
// volumes are created, opened, closed, faulted, and destroyed concurrently
// while workers pound the whole fleet with operations and the background
// rebalancer and scrub scheduler run. Any deadlock hangs the test; any fence
// leakage or shared state trips the race detector; goroutines must all drain
// after Shutdown.
func TestConcurrentLifecycleHammer(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	m, err := New(Config{
		PoolBlocks:        512 * 1024,
		CacheBudgetBlocks: 512,
		CacheMinPerVolume: 16,
		RebalanceInterval: 20 * time.Millisecond,
		ScrubInterval:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const slots = 6
	name := func(i int) string { return fmt.Sprintf("slot%d", i) }
	// Every volume gets a private registry with a bounded deterministic crash
	// so fault storms run concurrently with lifecycle churn.
	vcfg := func(i int) VolumeConfig {
		reg := faultinject.NewRegistry(int64(i) + 1)
		reg.Arm(&faultinject.Specimen{
			ID: "hammer", Class: faultinject.Crash,
			Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "boom",
			MaxFires: 2,
		})
		vc := smallVol()
		vc.Core.Base.Injector = reg
		return vc
	}
	for i := 0; i < slots; i++ {
		if _, err := m.Create(name(i), vcfg(i)); err != nil {
			t.Fatalf("Create %s: %v", name(i), err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Workers: mixed operations against random volumes, tolerating every
	// lifecycle and overload error — those are the API contract, not bugs.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v, err := m.Get(name(rng.Intn(slots)))
				if err != nil {
					continue
				}
				var oerr error
				switch i % 8 {
				case 0:
					oerr = v.Mkdir(fmt.Sprintf("/d%d-%d", w, i), 0o755)
				case 1:
					// The fault path: trips a recovery while others operate.
					oerr = v.Mkdir(fmt.Sprintf("/boom%d-%d", w, i), 0o755)
				case 2, 3:
					var fd int
					if f, cerr := v.Create(fmt.Sprintf("/f%d-%d", w, i), 0o644); cerr == nil {
						fd = int(f)
						_, werr := v.WriteAt(f, 0, []byte("hammer payload"))
						oerr = errors.Join(werr, v.Close(f))
						_ = fd
					} else {
						oerr = cerr
					}
				case 4:
					_, oerr = v.Readdir("/")
				case 5:
					_, oerr = v.Stat("/")
				case 6:
					oerr = v.Sync()
				case 7:
					_, oerr = v.ReadAt(-1, 0, 8) // bad fd: error path under load
				}
				if oerr != nil && !tolerable(oerr) {
					t.Errorf("worker %d op %d: %v", w, i, oerr)
					return
				}
			}
		}(w)
	}

	// Lifecycle churn: one goroutine cycles volumes through
	// close → open → destroy → create while the workers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := name(rng.Intn(slots))
			switch i % 3 {
			case 0:
				_ = m.Close(n)
				_, _ = m.Open(n)
			case 1:
				_ = m.Destroy(n)
				if _, err := m.Create(n, vcfg(i%slots)); err != nil && !errors.Is(err, fserr.ErrExist) {
					t.Errorf("re-create %s: %v", n, err)
					return
				}
			case 2:
				m.RebalanceOnce()
				m.ScrubAll()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := m.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := m.Create("late", smallVol()); err != nil {
		// Creating after shutdown still works mechanically (no loops run);
		// destroy it so the goroutine accounting below is clean.
		t.Logf("post-shutdown create: %v", err)
	} else if err := m.Destroy("late"); err != nil {
		t.Fatalf("Destroy late: %v", err)
	}

	// Goroutine-leak check: everything the manager and its volumes spawned
	// (scrub loops, watchdogs) must exit after Shutdown.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= goroutinesBefore+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s",
				goroutinesBefore, now, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// tolerable says whether an error is an expected consequence of racing
// lifecycle transitions, QoS, or deliberately bad arguments — anything else
// is a real failure.
func tolerable(err error) bool {
	return errors.Is(err, fserr.ErrInvalid) ||
		errors.Is(err, fserr.ErrNotExist) ||
		errors.Is(err, fserr.ErrExist) ||
		errors.Is(err, fserr.ErrBusy) ||
		errors.Is(err, fserr.ErrOverloaded) ||
		errors.Is(err, fserr.ErrBadFD) ||
		errors.Is(err, fserr.ErrNoSpace)
}
