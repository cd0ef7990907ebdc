package telemetry

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// numShards is the stripe count for sharded counters: the next power of two
// at or above GOMAXPROCS at init, capped so idle counters stay small.
var numShards = func() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	if shards > 64 {
		shards = 64
	}
	return shards
}()

// shard is one cache-line-padded counter stripe. The padding keeps two
// stripes out of the same cache line so concurrent writers on different
// cores do not false-share.
type shard struct {
	n atomic.Int64
	_ [56]byte
}

// shardIndex picks a stripe for the calling goroutine. Goroutine stacks are
// distinct allocations, so the address of a local variable is a cheap,
// allocation-free proxy for goroutine identity; hashing it spreads
// goroutines across stripes.
func shardIndex(mask uint32) uint32 {
	var probe byte
	h := uint32(uintptr(unsafe.Pointer(&probe)) >> 4)
	h *= 2654435761 // Knuth multiplicative hash
	return (h >> 16) & mask
}

// Counter is a monotonically increasing, sharded atomic counter. A nil
// *Counter is valid and records nothing, so instrumentation points hold
// possibly-nil pointers and call methods unconditionally: the disabled path
// is one pointer check.
type Counter struct {
	shards []shard
	mask   uint32
}

func newCounter() *Counter {
	return &Counter{shards: make([]shard, numShards), mask: uint32(numShards - 1)}
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.shards[shardIndex(c.mask)].n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums all stripes.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// reset zeroes every stripe (approximate under concurrent writers).
func (c *Counter) reset() {
	for i := range c.shards {
		c.shards[i].n.Store(0)
	}
}

// Gauge is an instantaneous value (queue depth, live log length). A nil
// *Gauge is valid and records nothing.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the current value by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a log2 histogram: bucket i holds
// observations whose nanosecond value has bit length i, i.e. [2^(i-1), 2^i).
// Bucket 0 holds exact zeros. 64 bit lengths cover every int64.
const histBuckets = 65

// Histogram is a log2-bucketed latency histogram with lock-free recording.
// A nil *Histogram is valid and records nothing.
//
// A histogram fed by Timers holds 1-in-64 samples, not every timed region
// (see StartTimer). Its Count is then the number of samples, Sum their total
// and Max the largest sample; the quantiles are those of the samples. A
// histogram fed only by Observe is exact.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	// starts counts StartTimer calls, to pick the sampled ones.
	starts atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.ObserveNs(int64(d))
}

// ObserveNs records one observation in nanoseconds.
func (h *Histogram) ObserveNs(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// HistSnapshot is a point-in-time summary of a Histogram. Buckets carries the
// raw log2 bucket counts (trailing zeros trimmed) so snapshots merge exactly:
// a fleet rollup sums buckets and recomputes quantiles instead of guessing at
// combined percentiles.
type HistSnapshot struct {
	Count   int64         `json:"count"`
	Sum     time.Duration `json:"sum"`
	Mean    time.Duration `json:"mean"`
	P50     time.Duration `json:"p50"`
	P99     time.Duration `json:"p99"`
	P999    time.Duration `json:"p999"`
	Max     time.Duration `json:"max"`
	Buckets []int64       `json:"buckets,omitempty"`
}

// Snapshot summarizes the histogram. Quantiles are upper-bound estimates
// from the log2 bucket boundaries, capped at the exact observed max.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var s HistSnapshot
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		s.Count += counts[i]
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	if s.Count == 0 {
		return s
	}
	last := 0
	for i, c := range counts {
		if c != 0 {
			last = i
		}
	}
	s.Buckets = append([]int64(nil), counts[:last+1]...)
	s.Mean = s.Sum / time.Duration(s.Count)
	s.P50 = histQuantile(counts[:], s.Count, 0.50, s.Max)
	s.P99 = histQuantile(counts[:], s.Count, 0.99, s.Max)
	s.P999 = histQuantile(counts[:], s.Count, 0.999, s.Max)
	return s
}

// histQuantile walks the bucket counts and returns the upper bound of the
// bucket containing the q-th ranked observation.
func histQuantile(counts []int64, total int64, q float64, max time.Duration) time.Duration {
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0
			}
			upper := time.Duration(int64(1)<<uint(i)) - 1
			if upper > max {
				return max
			}
			return upper
		}
	}
	return max
}

// reset zeroes the histogram (approximate under concurrent writers).
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	h.starts.Store(0)
}

// timerSample is the sampling period of timers: StartTimer reads the clock
// on the first start of each histogram and then on every timerSample-th.
const timerSample = 64

// Timer measures one code region into a Histogram. The zero Timer (from a
// nil histogram, or a start that is not sampled) skips the clock reads
// entirely, so an instrumentation point that is disabled or not sampled
// never calls time.Now.
type Timer struct {
	h  *Histogram
	t0 time.Time
}

// StartTimer begins timing into h. It times one start in timerSample,
// counted per histogram so the choice is deterministic: the first, then
// every timerSample-th. Other starts, and every start with h nil, return an
// inert Timer. A per-call clock read was the largest cost the timers put on
// a cache hit; sampling keeps their quantiles while taking it off the path.
func StartTimer(h *Histogram) Timer {
	if h == nil || (h.starts.Add(1)-1)%timerSample != 0 {
		return Timer{}
	}
	return Timer{h: h, t0: time.Now()}
}

// Stop records the elapsed time. Safe on the inert Timer.
func (t Timer) Stop() {
	if t.h != nil {
		t.h.Observe(time.Since(t.t0))
	}
}
