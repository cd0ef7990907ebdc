package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started. Parent 0 means the span had no in-flight client
// call to hang from (background work, or more than one client running).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps what a traced pass keeps in memory and writes out: the spans
// with the first maxSpans ids. Ids are handed out in time order and a child
// gets its id after its parent, so the kept set is a prefix of the pass with
// no dangling parents. Every call is still timed after the cap, so tracing
// costs the same throughout the pass.
const maxSpans = 150000

// tracer hands out span ids and collects span sources. Each client owns one
// source and appends to it without locking; the device decorator's source is
// shared by the base's queue workers and locks.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	// single is set when exactly one client runs; only then can a device
	// call name the client call that caused it.
	single bool
	// current is the id of that client's in-flight client.op span, 0 between
	// calls and whenever single is unset.
	current atomic.Uint64
	sources []*spanSource
}

type spanSource struct {
	tr    *tracer
	mu    sync.Mutex
	spans []span
}

func newTracer(clients int) *tracer { return &tracer{t0: time.Now(), single: clients == 1} }

func (tr *tracer) source() *spanSource {
	s := &spanSource{tr: tr}
	tr.sources = append(tr.sources, s)
	return s
}

// add records a finished span. Only the device source is called concurrently.
func (s *spanSource) add(sp span) {
	s.mu.Lock()
	if sp.ID <= maxSpans {
		s.spans = append(s.spans, sp)
	}
	s.mu.Unlock()
}

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

// all returns every kept span ordered by start time.
func (tr *tracer) all() []span {
	var out []span
	for _, s := range tr.sources {
		out = append(out, s.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes spans, one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover.
// Children may overlap each other (the base writes through several queue
// workers) and may outlive the parent (write-back continues after the call
// returns), so the covered part is the union of the children clipped to the
// parent.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[string]int64)
	for _, sp := range spans {
		self[sp.Name] += sp.End - sp.Start - covered(sp, children[sp.ID])
	}
	return self
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		start, end := max(k.Start, edge), min(k.End, parent.End)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// tracedDev times every device call of a local workload. It embeds the Mem
// it wraps so that every optional interface Mem implements stays visible to
// the filesystem (a decorator that hides VecWriter or Snapshotter silently
// reroutes IO onto the per-block path or disables scrubbing); the calls that
// move data are overridden to add a span and busy time.
type tracedDev struct {
	*blockdev.Mem
	src    *spanSource
	busyNs atomic.Int64
}

var (
	_ blockdev.Device      = (*tracedDev)(nil)
	_ blockdev.VecReader   = (*tracedDev)(nil)
	_ blockdev.VecWriter   = (*tracedDev)(nil)
	_ blockdev.Snapshotter = (*tracedDev)(nil)
)

func newTracedDev(mem *blockdev.Mem, tr *tracer) *tracedDev {
	return &tracedDev{Mem: mem, src: tr.source()}
}

// begin samples the parent and the clock when a device call starts; the
// deferred record closes the span when it returns.
func (d *tracedDev) begin() (uint64, time.Time) { return d.src.tr.current.Load(), time.Now() }

func (d *tracedDev) record(name string, parent uint64, t0 time.Time) {
	t1 := time.Now()
	d.busyNs.Add(int64(t1.Sub(t0)))
	tr := d.src.tr
	d.src.add(span{ID: tr.nextID.Add(1), Parent: parent, Name: name, Client: -1,
		Start: tr.since(t0), End: tr.since(t1)})
}

func (d *tracedDev) ReadBlock(blk uint32) ([]byte, error) {
	parent, t0 := d.begin()
	defer d.record("blockdev.read", parent, t0)
	return d.Mem.ReadBlock(blk)
}

func (d *tracedDev) WriteBlock(blk uint32, data []byte) error {
	parent, t0 := d.begin()
	defer d.record("blockdev.write", parent, t0)
	return d.Mem.WriteBlock(blk, data)
}

func (d *tracedDev) Flush() error {
	parent, t0 := d.begin()
	defer d.record("blockdev.flush", parent, t0)
	return d.Mem.Flush()
}

func (d *tracedDev) ReadVec(runs []blockdev.Run) error {
	parent, t0 := d.begin()
	defer d.record("blockdev.read", parent, t0)
	return d.Mem.ReadVec(runs)
}

func (d *tracedDev) WriteVec(runs []blockdev.Run) error {
	parent, t0 := d.begin()
	defer d.record("blockdev.write", parent, t0)
	return d.Mem.WriteVec(runs)
}
