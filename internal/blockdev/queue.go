package blockdev

import (
	"fmt"
	"sync"

	"repro/internal/fserr"
	"repro/internal/telemetry"
)

// Queue is the asynchronous, multi-queue block layer the base filesystem
// drives (the blk-mq analogue in Figure 2). Requests are submitted to
// per-CPU-style submission queues and completed by worker goroutines; the
// shadow never touches this path.
//
// Flush ordering uses write epochs: every request joins the current epoch at
// submission, and a flush seals the epoch, waits for it (and, transitively,
// every earlier epoch) to drain, and only then issues the device flush. A
// write submitted after the flush began is in a later epoch and is never
// waited on — it may complete before or after the flush, which is exactly
// the barrier contract: a flush covers all IO submitted before it, nothing
// more.
type Queue struct {
	dev    Device
	reqs   chan *Request
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	// epoch is the set of in-flight requests a future flush must order
	// after. Guarded by mu; swapped (never Waited under mu) by Flush.
	epoch *sync.WaitGroup

	// Telemetry for the queued path ("blockdev.queued.*"), distinguishing
	// the base's async IO machinery from the shadow's direct path. All nil
	// when telemetry is off; the instruments themselves are nil-safe.
	tel struct {
		reads, writes, flushes *telemetry.Counter
		hRead, hWrite, hFlush  *telemetry.Histogram
	}
}

// SetTelemetry installs queued-path instrumentation ("blockdev.queued.*")
// from s. Call before submitting IO; a nil sink leaves the queue
// uninstrumented at the cost of one pointer check per request.
func (q *Queue) SetTelemetry(s *telemetry.Sink) {
	if s == nil {
		return
	}
	q.tel.reads = s.Counter("blockdev.queued.reads")
	q.tel.writes = s.Counter("blockdev.queued.writes")
	q.tel.flushes = s.Counter("blockdev.queued.flushes")
	q.tel.hRead = s.Histogram("blockdev.queued.read.latency")
	q.tel.hWrite = s.Histogram("blockdev.queued.write.latency")
	q.tel.hFlush = s.Histogram("blockdev.queued.flush.latency")
}

// OpKind distinguishes queued request types.
type OpKind int

// Request kinds.
const (
	OpRead OpKind = iota
	OpFlush
	// OpWriteVec writes the contiguous run [Blk, Blk+len(Bufs)) in one
	// device-level call.
	OpWriteVec
	// OpReadVec reads the contiguous run [Blk, Blk+len(Bufs)) into Bufs in
	// one device-level call.
	OpReadVec
)

// Request is one queued block IO.
type Request struct {
	Kind OpKind
	Blk  uint32
	Data []byte   // result buffer for OpRead
	Bufs [][]byte // run for OpWriteVec and OpReadVec, one buffer per block
	Err  error
	done chan struct{}
	// epoch is the flush epoch this request was submitted under.
	epoch *sync.WaitGroup
}

// Wait blocks until the request completes and returns its error.
func (r *Request) Wait() error {
	<-r.done
	return r.Err
}

// NewQueue starts a queue over dev with the given number of worker
// goroutines and queue depth.
func NewQueue(dev Device, workers, depth int) *Queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 64
	}
	q := &Queue{dev: dev, reqs: make(chan *Request, depth), epoch: &sync.WaitGroup{}}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for r := range q.reqs {
		switch r.Kind {
		case OpRead:
			t := telemetry.StartTimer(q.tel.hRead)
			r.Data, r.Err = q.dev.ReadBlock(r.Blk)
			t.Stop()
			q.tel.reads.Inc()
		case OpWriteVec:
			t := telemetry.StartTimer(q.tel.hWrite)
			r.Err = q.dev.WriteVec([]Run{{Blk: r.Blk, Bufs: r.Bufs}})
			t.Stop()
			q.tel.writes.Add(int64(len(r.Bufs)))
		case OpReadVec:
			t := telemetry.StartTimer(q.tel.hRead)
			r.Err = q.dev.ReadVec([]Run{{Blk: r.Blk, Bufs: r.Bufs}})
			t.Stop()
			q.tel.reads.Add(int64(len(r.Bufs)))
		case OpFlush:
			t := telemetry.StartTimer(q.tel.hFlush)
			r.Err = q.dev.Flush()
			t.Stop()
			q.tel.flushes.Inc()
		}
		close(r.done)
		r.epoch.Done()
	}
}

// Submit enqueues a request; the caller later calls Wait on it. Submitting
// to a closed queue fails the request immediately.
func (q *Queue) Submit(r *Request) *Request {
	r.done = make(chan struct{})
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		r.Err = fmt.Errorf("blockdev: queue closed: %w", fserr.ErrIO)
		close(r.done)
		return r
	}
	r.epoch = q.epoch
	r.epoch.Add(1)
	q.reqs <- r
	q.mu.Unlock()
	return r
}

// Read performs a synchronous read via the queue.
func (q *Queue) Read(blk uint32) ([]byte, error) {
	r := q.Submit(&Request{Kind: OpRead, Blk: blk})
	if err := r.Wait(); err != nil {
		return nil, err
	}
	return r.Data, nil
}

// WriteVecAsync enqueues one contiguous run as a single request; it is the
// queue's only write. The base's write-back, journal and checkpoint turn
// each run of adjacent blocks into one of these, so a large sequential
// sync costs a handful of queue round-trips and device calls.
func (q *Queue) WriteVecAsync(blk uint32, bufs [][]byte) *Request {
	return q.Submit(&Request{Kind: OpWriteVec, Blk: blk, Bufs: bufs})
}

// sealEpoch atomically replaces the current epoch and returns the old one,
// which from that point on can only shrink. The new epoch carries one token
// released when the old epoch drains, so a later seal transitively waits for
// every earlier epoch without keeping a list.
func (q *Queue) sealEpoch() *sync.WaitGroup {
	q.mu.Lock()
	old := q.epoch
	q.epoch = &sync.WaitGroup{}
	q.epoch.Add(1) // carry token, released once old has drained
	next := q.epoch
	q.mu.Unlock()
	go func() {
		old.Wait()
		next.Done()
	}()
	return old
}

// Flush orders after all previously submitted requests: it seals the current
// write epoch, waits for it (and all earlier epochs) to complete, then
// issues a device flush through the queue. Writes submitted concurrently
// with the flush are not covered by it and cannot make it report success
// early — the WaitGroup they join is no longer the one being waited on.
func (q *Queue) Flush() error {
	q.sealEpoch().Wait()
	r := q.Submit(&Request{Kind: OpFlush})
	return r.Wait()
}

// Close drains and stops the workers. The queue cannot be reused.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	old := q.epoch
	q.epoch = &sync.WaitGroup{} // closed: no new members
	q.mu.Unlock()
	old.Wait()
	close(q.reqs)
	q.wg.Wait()
}

// QueueDevice adapts a Queue to the synchronous Device interface so
// components written against Device (the journal) drive their IO through
// the base's async block layer: the runs of one WriteVec are in flight at
// once, and every flush is counted by the queued-path telemetry.
type QueueDevice struct {
	q *Queue
	n uint32
}

// Device returns a synchronous Device view of the queue.
func (q *Queue) Device() *QueueDevice {
	return &QueueDevice{q: q, n: q.dev.NumBlocks()}
}

// ReadBlock implements Device.
func (d *QueueDevice) ReadBlock(blk uint32) ([]byte, error) { return d.q.Read(blk) }

// WriteBlock implements Device as a one-block run.
func (d *QueueDevice) WriteBlock(blk uint32, data []byte) error {
	return d.q.WriteVecAsync(blk, [][]byte{data}).Wait()
}

// ReadVec implements VecReader: each run is one queued request, and all of
// them are in flight at once.
func (d *QueueDevice) ReadVec(runs []Run) error {
	return d.vec(OpReadVec, runs)
}

// WriteVec implements VecWriter: each run is one queued request, and all of
// them are in flight at once.
func (d *QueueDevice) WriteVec(runs []Run) error {
	return d.vec(OpWriteVec, runs)
}

// vec submits one request per run and waits for all of them, returning the
// first error in run order.
func (d *QueueDevice) vec(kind OpKind, runs []Run) error {
	reqs := make([]*Request, len(runs))
	for i, r := range runs {
		reqs[i] = d.q.Submit(&Request{Kind: kind, Blk: r.Blk, Bufs: r.Bufs})
	}
	var first error
	for _, r := range reqs {
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumBlocks implements Device.
func (d *QueueDevice) NumBlocks() uint32 { return d.n }

// Flush implements Device.
func (d *QueueDevice) Flush() error { return d.q.Flush() }

// AsyncWriter is implemented by no device in this module: the journal
// writes each commit as one run. It stays only because the benchmark
// module's decorator test still names it.
type AsyncWriter interface {
	WriteAsync(blk uint32, data []byte) *Request
}
