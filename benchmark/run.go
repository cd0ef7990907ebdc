package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/fswire"
	"repro/internal/oplog"
)

// client is one closed-loop caller: it issues its trace's ops one after
// another (or, pipelined, up to the next barrier) and waits for each reply.
type client struct {
	id   int
	fs   fsapi.FS
	wire *fswire.Client // set when the client pipelines through SubmitOp
	t    *trace
	owns bool     // no other client allocates in this filesystem
	sup  *core.FS // set when the trace plants faults
	src  *spanSource

	fds fdTable

	// Position after the run: laps whole repetitions plus pos ops.
	laps, pos int
	// onFirstLap, when set, runs once as the first lap completes.
	onFirstLap  func()
	firstLapDev *blockdev.StatsSnapshot

	lat     []uint32 // per-call latency, ns
	syncLat []uint32 // fsync/sync latency, ns
	// marks[i] is how many latencies (calls, barriers) had been recorded when
	// window i of the measured region ended.
	marks    [][2]int
	window   time.Duration
	nextMark time.Time
	recovery []int64 // latency of calls that hit a planted fault, ns
	planted  int64   // fault-token calls executed
	rdBytes  int64
	wrBytes  int64
	rdNs     int64 // time inside read calls
	wrNs     int64 // time inside write and barrier calls
	failed   int64
	firstBad string
}

func newClient(id int, r *rig, w *workload, t *trace, tr *tracer) *client {
	c := &client{id: id, fs: r.fs[id], t: t, owns: !r.shared,
		// Room for a whole pass, so no append inside the measured region
		// has to grow and copy the slice.
		lat: make([]uint32, 0, 1<<22), syncLat: make([]uint32, 0, 1<<20)}
	if w.pipelined && r.wire != nil {
		c.wire = r.wire[id]
	}
	if w.plantEvery > 0 {
		c.sup = r.sups[0] // nil on a probe rig, which arms no faults
	}
	if tr != nil {
		c.src = tr.source()
	}
	return c
}

func (c *client) attempted() int64 { return int64(len(c.lat)) }

// settle checks one finished call against the oracle and keeps the
// descriptor table and the per-class tallies current.
func (c *client) settle(o *op, got outcome, d time.Duration) {
	ns := uint32(min(int64(d), int64(^uint32(0))))
	c.lat = append(c.lat, ns)
	c.fds.note(o, got)
	switch o.kind {
	case opRead:
		c.rdBytes += int64(got.retN)
		c.rdNs += int64(d)
	case opWrite:
		c.wrBytes += int64(got.retN)
		c.wrNs += int64(d)
	case opFsync, opSync:
		c.syncLat = append(c.syncLat, ns)
		c.wrNs += int64(d)
	}
	if !o.matches(got, c.owns) || fserr.IsFault(fserr.FromErrno(int(got.errno))) {
		c.failed++
		if c.firstBad == "" {
			c.firstBad = fmt.Sprintf("client %d %s %q: got %+v, oracle %+v", c.id, o.kind,
				c.t.paths[o.path], got, outcome{o.errno, o.retFD, o.retN, o.ino, o.size})
		}
	}
}

// one executes a single op synchronously and settles it. It returns the
// time the call ended, which the caller compares with the deadline.
func (c *client) one(o *op) time.Time {
	fault := o.fault && c.sup != nil
	var before int64
	if fault {
		before = c.sup.Stats().Recoveries
	}
	var id uint64
	if c.src != nil {
		id = c.src.tr.nextID.Add(1)
		if c.src.tr.single {
			c.src.tr.current.Store(id)
		}
	}
	t0 := time.Now()
	got, _ := call(c.fs, c.t, o, c.fds.arg(o))
	t1 := time.Now()
	d := t1.Sub(t0)
	if c.src != nil {
		if c.src.tr.single {
			c.src.tr.current.Store(0)
		}
		c.src.add(span{ID: id, Name: "client.op", Op: o.kind.String(), Client: c.id,
			Start: c.src.tr.since(t0), End: c.src.tr.since(t1)})
	}
	if fault {
		c.planted++
		// The call hit the fault if the supervisor recovered across it.
		if c.sup.Stats().Recoveries > before {
			c.recovery = append(c.recovery, int64(d))
		}
	}
	c.settle(o, got, d)
	return t1
}

// inflight is one pipelined op waiting for its reply.
type inflight struct {
	o    *op
	w    *oplog.Op
	wait interface{ Wait() }
	t0   time.Time
	span uint64
}

// submit pipelines one op. A barrier drains the pipeline: the client learns
// every outstanding outcome, in order, before it goes on. An op's latency
// runs from its submission to the moment the client knows its outcome.
func (c *client) submit(o *op, pending []inflight) ([]inflight, time.Time) {
	in := inflight{o: o, w: wireOp(c.t, o), t0: time.Now()}
	in.wait = c.wire.SubmitOp(in.w)
	now := time.Now()
	if c.src != nil {
		in.span = c.src.tr.nextID.Add(1)
		c.src.add(span{ID: in.span, Name: "client.op", Op: o.kind.String(), Client: c.id,
			Start: c.src.tr.since(in.t0), End: c.src.tr.since(now)})
	}
	pending = append(pending, in)
	if !o.kind.barrier() {
		return pending, now
	}
	return c.drain(pending), time.Now()
}

func (c *client) drain(pending []inflight) []inflight {
	for _, in := range pending {
		in.wait.Wait()
		now := time.Now()
		if c.src != nil {
			c.src.add(span{ID: c.src.tr.nextID.Add(1), Parent: in.span, Name: "fswire.call",
				Op: in.o.kind.String(), Client: c.id, Start: c.src.tr.since(in.t0), End: c.src.tr.since(now)})
		}
		c.settle(in.o, wireOutcome(in.o, in.w), now.Sub(in.t0))
	}
	return pending[:0]
}

// run executes ops in order, repeating them if loop is set, until they run
// out or the deadline (if any) passes. The deadline is checked after every
// call against the call's own end timestamp, so the clock is read no more
// than the latency needs.
func (c *client) run(ops []op, deadline time.Time, loop bool) {
	var pending []inflight
	for {
		for i := range ops {
			var end time.Time
			if c.wire != nil {
				pending, end = c.submit(&ops[i], pending)
			} else {
				end = c.one(&ops[i])
			}
			for c.window > 0 && !end.Before(c.nextMark) {
				c.marks = append(c.marks, [2]int{len(c.lat), len(c.syncLat)})
				c.nextMark = c.nextMark.Add(c.window)
			}
			if !deadline.IsZero() && end.After(deadline) {
				c.drain(pending)
				c.pos = i + 1
				return
			}
		}
		if !loop {
			c.drain(pending)
			return
		}
		c.laps++
		if c.laps == 1 && c.onFirstLap != nil {
			c.onFirstLap()
		}
	}
}

// finish closes whatever the client still has open and makes everything
// durable, so the final image can be compared with the model's.
func (c *client) finish() {
	var ops []op
	for fd, actual := range c.fds {
		if actual >= 0 {
			ops = append(ops, op{kind: opClose, fd: int32(fd)})
		}
	}
	ops = append(ops, op{kind: opSync})
	// The epilogue is checked like every other call but is not part of the
	// measured region.
	nLat, nSync, wrNs := len(c.lat), len(c.syncLat), c.wrNs
	c.window = 0 // the measured region, and its windows, are over
	c.run(ops, time.Time{}, false)
	c.lat, c.syncLat, c.wrNs = c.lat[:nLat], c.syncLat[:nSync], wrNs
}

// passWindows is how many equal windows a measured region is cut into.
// Rates and percentiles are reported as the median over the windows, so a
// burst of interference from outside the benchmark (another tenant of the
// host, a collection in this process) moves one window, not the result.
const passWindows = 10

// window holds one window's samples from all clients, ascending.
type window struct {
	lat, syncLat []uint32
}

// pass is one measured run of a workload's clients against one rig.
type pass struct {
	clients []*client
	elapsed time.Duration
	ops     int64
	failed  int64
	planted int64
	window  time.Duration
	windows []window
	lat     []uint32 // every call of the pass; sorted only if a quantile falls back to it
	syncLat []uint32 // every barrier of the pass, likewise
	recov   []int64  // every call that hit a fault, ascending
}

// minWindowCalls is how many calls every window must hold before the
// windows' rates mean anything (a call that spans a window leaves it empty).
const minWindowCalls = 100

// opsPerSec is the median over the windows of calls completed per second,
// or the whole pass's rate when it was too short for its windows.
func (p *pass) opsPerSec() float64 {
	rates := make([]float64, len(p.windows))
	for i, w := range p.windows {
		if len(w.lat) < minWindowCalls {
			rates = nil
			break
		}
		rates[i] = float64(len(w.lat)) / p.window.Seconds()
	}
	if len(rates) == 0 {
		return float64(p.ops) / p.elapsed.Seconds()
	}
	return median(rates)
}

// quantile is the median over the windows of each window's q-quantile. When
// some window has too few samples to support it, the quantile is taken over
// the whole pass instead (and refused if that is too few as well).
func (p *pass) quantile(pick func(*window) []uint32, whole []uint32, q float64) (float64, error) {
	per := make([]float64, 0, len(p.windows))
	for i := range p.windows {
		x, err := percentile(pick(&p.windows[i]), q)
		if err != nil {
			per = nil
			break
		}
		per = append(per, x)
	}
	if len(per) > 0 {
		return median(per), nil
	}
	slices.Sort(whole)
	return percentile(whole, q)
}

// preload runs every client's set-up ops (directories, corpus) and fails if
// any outcome differs from the oracle.
func preload(clients []*client) error {
	for _, c := range clients {
		c.run(c.t.pre, time.Time{}, false)
		if c.failed != 0 {
			return fmt.Errorf("preload: %s", c.firstBad)
		}
		c.lat, c.syncLat = c.lat[:0], c.syncLat[:0]
		c.rdBytes, c.wrBytes, c.rdNs, c.wrNs = 0, 0, 0, 0
	}
	return nil
}

// measure runs every client's lap in a loop for the given time, then has
// each client close and sync.
func measure(clients []*client, d time.Duration) *pass {
	p := &pass{clients: clients, window: d / passWindows}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		c.window, c.nextMark = p.window, start.Add(p.window)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(c.t.lap, deadline, true)
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	nwin := passWindows
	for _, c := range clients {
		c.finish()
		p.ops += c.attempted()
		p.failed += c.failed
		p.planted += c.planted
		p.lat = append(p.lat, c.lat...)
		p.syncLat = append(p.syncLat, c.syncLat...)
		p.recov = append(p.recov, c.recovery...)
		// A client stuck in one long call (a recovery) can cross several
		// window ends at once and, at the very end, miss the last.
		nwin = min(nwin, len(c.marks))
	}
	for i := 0; i < nwin; i++ {
		var w window
		for _, c := range clients {
			from := [2]int{}
			if i > 0 {
				from = c.marks[i-1]
			}
			w.lat = append(w.lat, c.lat[from[0]:c.marks[i][0]]...)
			w.syncLat = append(w.syncLat, c.syncLat[from[1]:c.marks[i][1]]...)
		}
		slices.Sort(w.lat)
		slices.Sort(w.syncLat)
		p.windows = append(p.windows, w)
	}
	slices.Sort(p.recov)
	return p
}
