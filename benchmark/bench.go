package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disklayout"
	"repro/internal/journal"
	"repro/internal/mkfs"
	"repro/internal/oplog"
)

// settings sizes one invocation.
type settings struct {
	seed int64
	// seconds is how long each measured pass runs.
	seconds time.Duration
	// probeSeconds is how long each isolation probe drives its layer.
	probeSeconds time.Duration
	// scale multiplies lap lengths; the smoke sizing uses a fraction.
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// outDir receives the span files and the result file.
	outDir string
}

// prepared is a workload's generated input: one trace per client.
type prepared struct {
	w      *workload
	sb     *disklayout.Superblock
	traces []*trace
}

func prepare(w *workload, s settings) (*prepared, error) {
	sb, err := geometry(w)
	if err != nil {
		return nil, err
	}
	pr := &prepared{w: w, sb: sb}
	for i := 0; i < w.clients; i++ {
		t, err := generate(w, sb, s.seed, i, s.scale)
		if err != nil {
			return nil, err
		}
		pr.traces = append(pr.traces, t)
	}
	return pr, nil
}

// bring builds a rig, connects nclients clients and runs their set-up ops.
func (pr *prepared) bring(kind rigKind, seed int64, tr *tracer, nclients int) (*rig, []*client, error) {
	r, err := build(pr.w, kind, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	var clients []*client
	for i := 0; i < nclients; i++ {
		clients = append(clients, newClient(i, r, pr.w, pr.traces[i], tr))
	}
	if err := preload(clients); err != nil {
		r.kill()
		return nil, nil, err
	}
	return r, clients, nil
}

// setUp does everything that precedes a measured pass on the system under
// test — trace generation, format, mount, corpus preload, server start —
// s.setups times over, and reports the median duration with the last rig.
func setUp(w *workload, s settings) (*prepared, *rig, []*client, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		pr, err := prepare(w, s)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		r, clients, err := pr.bring(rigSystem, s.seed, nil, w.clients)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == s.setups-1 {
			return pr, r, clients, median(times), nil
		}
		r.kill()
	}
}

// result is everything one workload's run produced.
type result struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Metrics   values `json:"metrics"`

	violations []string
	notes      []string
}

func (res *result) absorb(p *pass, g *gate) {
	res.Attempted += p.ops
	res.Failed += p.failed
	res.violations = append(res.violations, g.violations...)
	res.Correct = len(res.violations) == 0
}

// timedPass is the production-default run that yields the end-to-end
// metrics: no spans, no decorator, a private telemetry sink.
func timedPass(w *workload, s settings, res *result) (*prepared, *pass, error) {
	pr, r, clients, setup, err := setUp(w, s)
	if err != nil {
		return nil, nil, err
	}
	res.Metrics.set("setup_s", setup, int64(s.setups))
	watchFirstLap(r, clients)
	p := measure(clients, s.seconds)
	clientMetrics(w, p, res.Metrics)
	res.absorb(p, check(w, pr.sb, r, p))
	return pr, p, nil
}

// tracedPass repeats the run on a fresh image from the same traces with
// spans on, and derives the per-layer metrics from it.
func tracedPass(pr *prepared, s settings, timed *pass, res *result) error {
	w := pr.w
	tr := newTracer(w.clients)
	r, clients, err := pr.bring(rigSystem, s.seed, tr, w.clients)
	if err != nil {
		return err
	}
	watchFirstLap(r, clients)
	peaks := watchProcess()
	before := r.read()
	p := measure(clients, s.seconds)
	after := r.read()
	heap, goroutines := peaks()

	v := res.Metrics
	layerMetrics(w, r, p, before, after, v)
	v.set("process.heap_peak_mb", float64(heap)/1e6, 0)
	v.set("process.goroutines_peak", float64(goroutines), 0)
	v.set("bench.trace_overhead_share", 1-p.opsPerSec()/timed.opsPerSec(), p.ops)

	g := check(w, pr.sb, r, p)
	res.absorb(p, g)
	v.set("fsck.full_check_ms", float64(g.fsckTime)*msPerNs, int64(len(r.mems)))
	if note, err := sameDeviceCalls(timed, p); err != nil {
		res.violations = append(res.violations, err.Error())
		res.Correct = false
	} else if note != "" {
		res.notes = append(res.notes, note)
	}

	if err := probes(pr, s, timed, tr, v); err != nil {
		return err
	}
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return err
	}
	spans := tr.all()
	if err := writeJSONL(filepath.Join(s.outDir, "spans-"+w.name+".jsonl"), spans); err != nil {
		return err
	}
	v.set("bench.spans", float64(len(spans)), 0)
	for name, ns := range selfTimes(spans) {
		res.notes = append(res.notes, fmt.Sprintf("self time %-16s %10.3f ms in the first %d spans",
			name, float64(ns)*msPerNs, maxSpans))
	}
	return nil
}

// watchFirstLap makes a single-client local run record the device's call
// counts at the end of its first lap. Up to there the timed and the traced
// pass executed the same calls on identical fresh images, so they must have
// written and flushed the same number of times: the span decorator may not
// change what IO the filesystem issues.
func watchFirstLap(r *rig, clients []*client) {
	if len(clients) != 1 || len(r.mems) != 1 || r.mems[0] == nil {
		return
	}
	c := clients[0]
	c.onFirstLap = func() {
		s := r.mems[0].Stats().Snapshot()
		c.firstLapDev = &s
	}
}

// sameDeviceCalls compares what the two passes' first laps asked of the
// device. Write and flush calls are a function of the calls made (every
// dirty block goes out once per sync round) and must be equal. Read calls
// also depend on timing — which buffers write-back had cleaned when the
// cache evicted, how far a recovery's prefetch crew got — so a difference
// there is reported, not failed; TestDecoratorKeepsDeviceCalls holds all
// three equal on a trace that fits the cache.
func sameDeviceCalls(timed, traced *pass) (note string, err error) {
	if len(timed.clients) != 1 || timed.clients[0].onFirstLap == nil {
		return "", nil
	}
	a, b := timed.clients[0].firstLapDev, traced.clients[0].firstLapDev
	if a == nil || b == nil {
		return "device call counts not compared: a pass ended inside its first lap", nil
	}
	if a.WriteCalls != b.WriteCalls || a.Flushes != b.Flushes {
		return "", fmt.Errorf("device calls after one lap differ: timed %d writes %d flushes, traced %d writes %d flushes",
			a.WriteCalls, a.Flushes, b.WriteCalls, b.Flushes)
	}
	if a.ReadCalls != b.ReadCalls {
		note = fmt.Sprintf("device read calls after one lap: timed %d, traced %d (timing-dependent)", a.ReadCalls, b.ReadCalls)
	}
	return note, nil
}

// watchProcess samples the heap in use and the goroutine count while a pass
// runs; the returned function stops the sampler and reports the peaks.
func watchProcess() func() (heap uint64, goroutines int) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var heap uint64
	var goroutines int
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			heap = max(heap, ms.HeapInuse)
			goroutines = max(goroutines, runtime.NumGoroutine())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (uint64, int) {
		close(stop)
		wg.Wait()
		return heap, goroutines
	}
}

// probes drives single layers through their public API on the same traces
// and records one probe.<module> span for each.
func probes(pr *prepared, s settings, timed *pass, tr *tracer, v values) error {
	w := pr.w
	src := tr.source()
	spanned := func(module string, f func() error) error {
		t0 := time.Now()
		err := f()
		// Appended directly: the handful of probe spans is kept whatever the
		// cap on the pass's own spans.
		src.spans = append(src.spans, span{ID: tr.nextID.Add(1), Name: "probe." + module, Client: -1,
			Start: tr.since(t0), End: tr.since(time.Now())})
		return err
	}
	// rate runs the workload's clients against one layer alone.
	rate := func(kind rigKind, nclients int) (float64, int64, error) {
		r, clients, err := pr.bring(kind, s.seed, nil, nclients)
		if err != nil {
			return 0, 0, err
		}
		p := measure(clients, s.probeSeconds)
		r.kill()
		return p.opsPerSec(), p.ops, nil
	}

	if err := spanned("basefs", func() error {
		x, n, err := rate(rigBase, w.clients)
		if err != nil {
			return err
		}
		v.set("basefs.raw_ops_per_s", x, n)
		if !w.remote {
			// The share of a supervised call that is the supervisor's own.
			v.set("core.self_share", 1-timed.opsPerSec()/x, n)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := spanned("shadowfs", func() error { return probeShadow(pr, s, v) }); err != nil {
		return err
	}
	if w.remote {
		if err := spanned("fswire", func() error {
			x, n, err := rate(rigFloor, w.clients)
			if err != nil {
				return err
			}
			v.set("fswire.floor_ops_per_s", x, n)
			x, n, err = rate(rigInProc, w.clients)
			if err != nil {
				return err
			}
			// The share of a remote call that is the wire's and the server's.
			v.set("fswire.self_share", 1-timed.opsPerSec()/x, n)
			return probeRTT(pr, s, v)
		}); err != nil {
			return err
		}
	}
	if err := spanned("journal", func() error { return probeJournal(s, v) }); err != nil {
		return err
	}
	return spanned("oplog", func() error { probeOplog(s, v); return nil })
}

// probeShadow replays client 0's trace — set-up ops, then laps — on a shadow
// over a fresh image, for the probe's time and no longer: the shadow is slow
// by design (sequential, checked, everything kept in an overlay), and on the
// streaming trace the time is up before the corpus is even loaded.
func probeShadow(pr *prepared, s settings, v values) error {
	r, err := build(pr.w, rigShadow, s.seed, nil)
	if err != nil {
		return err
	}
	c := newClient(0, r, pr.w, pr.traces[0], nil)
	t0 := time.Now()
	deadline := t0.Add(s.probeSeconds)
	c.run(c.t.pre, deadline, false)
	if time.Now().Before(deadline) {
		c.run(c.t.lap, deadline, true)
	}
	elapsed := time.Since(t0)
	if c.failed != 0 {
		return fmt.Errorf("shadow replay: %s", c.firstBad)
	}
	v.set("shadowfs.replay_ops_per_s", float64(c.attempted())/elapsed.Seconds(), c.attempted())
	return nil
}

// probeRTT measures idle round trips: one connection, one Stat("/") at a
// time against a served model, nothing else running.
func probeRTT(pr *prepared, s settings, v values) error {
	r, err := build(pr.w, rigFloor, s.seed, nil)
	if err != nil {
		return err
	}
	defer r.kill()
	var lat []uint32
	for deadline := time.Now().Add(s.probeSeconds / 2); time.Now().Before(deadline); {
		t0 := time.Now()
		if _, err := r.fs[0].Stat("/"); err != nil {
			return err
		}
		lat = append(lat, uint32(time.Since(t0)))
	}
	slices.Sort(lat)
	if x, err := percentile(lat, 0.5); err == nil {
		v.set("fswire.rtt_p50_us", x*usPerNs, int64(len(lat)))
	}
	return nil
}

// probeJournal times an isolated 8-block transaction commit on a fresh
// device, checkpointing whenever the region fills.
func probeJournal(s settings, v values) error {
	dev := blockdev.NewMem(defaultBlocks)
	sb, err := mkfs.Format(dev, mkfs.Options{})
	if err != nil {
		return err
	}
	j, err := journal.New(dev, sb)
	if err != nil {
		return err
	}
	block := make([]byte, disklayout.BlockSize)
	var total time.Duration
	var n int64
	for deadline := time.Now().Add(s.probeSeconds / 4); time.Now().Before(deadline); n++ {
		tx := &journal.Tx{}
		for b := uint32(0); b < 8; b++ {
			tx.Add(sb.DataStart+b, block)
		}
		if j.SpaceLeft() < tx.Len() {
			if err := j.Checkpointed(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := j.Commit(tx); err != nil {
			return err
		}
		total += time.Since(t0)
	}
	v.set("journal.probe_commit_us", float64(total)/float64(n)*usPerNs, n)
	return nil
}

// probeOplog times appends of a small write record to an empty log,
// truncating every 256 appends as a sync round would.
func probeOplog(s settings, v values) {
	log := oplog.NewLog()
	rec := &oplog.Op{Kind: oplog.KWrite, FD: 3, Data: make([]byte, 256), RetN: 256}
	var n int64
	t0 := time.Now()
	for deadline := t0.Add(s.probeSeconds / 4); time.Now().Before(deadline); {
		for i := 0; i < 256; i++ {
			log.Append(rec)
		}
		log.Stable(nil, 0)
		n += 256
	}
	v.set("oplog.probe_append_ns", float64(time.Since(t0))/float64(n), n)
}
