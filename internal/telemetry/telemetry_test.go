package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentSum(t *testing.T) {
	s := New()
	c := s.Counter("test.ops")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	// Same name returns the same counter.
	if s.Counter("test.ops").Value() != workers*per {
		t.Fatal("second lookup did not return the same counter")
	}
}

func TestGauge(t *testing.T) {
	s := New()
	g := s.Gauge("test.len")
	g.Set(42)
	g.Add(-2)
	if got := g.Value(); got != 40 {
		t.Fatalf("gauge = %d, want 40", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations at ~1µs, 10 at ~1ms: p50 stays small, p999/max large.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	snap := h.Snapshot()
	if snap.Count != 1010 {
		t.Fatalf("count = %d, want 1010", snap.Count)
	}
	if snap.P50 >= time.Millisecond {
		t.Fatalf("p50 = %v, expected well under 1ms", snap.P50)
	}
	if snap.P999 < 500*time.Microsecond {
		t.Fatalf("p999 = %v, expected to land in the tail", snap.P999)
	}
	if snap.Max != time.Millisecond {
		t.Fatalf("max = %v, want exactly 1ms", snap.Max)
	}
	if snap.Mean <= 0 || snap.Sum <= 0 {
		t.Fatalf("mean/sum not positive: %+v", snap)
	}
	// Quantile estimates are upper bounds capped at the exact max.
	if snap.P99 > snap.Max || snap.P50 > snap.P99 {
		t.Fatalf("quantiles out of order: %+v", snap)
	}
}

func TestTimer(t *testing.T) {
	var h Histogram
	tm := StartTimer(&h)
	time.Sleep(time.Millisecond)
	tm.Stop()
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Max < time.Millisecond {
		t.Fatalf("timer recorded %+v, want one observation >= 1ms", snap)
	}
}

// TestTimerSampling pins the timers' 1-in-timerSample sampling: the first
// start of a histogram is timed, then every timerSample-th, chosen by a
// per-histogram count; an unsampled start and a nil histogram return the
// inert Timer without reading the clock. Observe stays exact.
func TestTimerSampling(t *testing.T) {
	var h Histogram
	first := StartTimer(&h)
	if first.h == nil || first.t0.IsZero() {
		t.Fatal("first start not timed")
	}
	first.Stop()
	if n := h.Snapshot().Count; n != 1 {
		t.Fatalf("after first start count = %d, want 1", n)
	}
	if tm := StartTimer(&h); tm != (Timer{}) {
		t.Fatalf("second start timed: %+v", tm)
	}
	h.reset()
	for i := 0; i < 10*timerSample; i++ {
		StartTimer(&h).Stop()
	}
	if n := h.Snapshot().Count; n != 10 {
		t.Fatalf("%d starts gave count %d, want 10", 10*timerSample, n)
	}
	for i := 0; i < 3; i++ {
		if tm := StartTimer(nil); tm != (Timer{}) {
			t.Fatalf("nil histogram timed: %+v", tm)
		}
	}
	var exact Histogram
	for i := 0; i < 100; i++ {
		exact.Observe(time.Microsecond)
	}
	if n := exact.Snapshot().Count; n != 100 {
		t.Fatalf("Observe count = %d, want 100", n)
	}
}

func TestEventRingBounds(t *testing.T) {
	s := New()
	const n = eventRingCap + 100
	for i := 0; i < n; i++ {
		s.Event("test", "event %d", i)
	}
	evs := s.Events()
	if len(evs) != eventRingCap {
		t.Fatalf("retained %d events, want %d", len(evs), eventRingCap)
	}
	// Oldest were dropped; Seq stays monotonic and gapless in the tail.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-monotonic seq at %d: %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
	if evs[len(evs)-1].Seq != n {
		t.Fatalf("last seq = %d, want %d", evs[len(evs)-1].Seq, n)
	}
	if got := s.Snapshot().TotalEvents; got != n {
		t.Fatalf("total events = %d, want %d", got, n)
	}
}

// testRecord is a finished recovery record with two stages that sum to
// its wall time, as the supervisor files one.
func testRecord(logLen int, outcome string) TraceSnapshot {
	return TraceSnapshot{
		Trigger: "panic", Mode: "rae", LogLen: logLen, OpsReplayed: logLen + 1,
		Outcome: outcome, Start: time.Now(), Wall: 5 * time.Millisecond,
		Spans: []Span{{Stage: "reboot", Duration: 2 * time.Millisecond}, {Stage: "replay", Duration: 3 * time.Millisecond}},
	}
}

// TestRecordRecovery: a filed record is numbered and retained as given, and
// feeds one observation per span to recovery.stage.<stage>_ns, one to
// recovery.stage.wall_ns, the outcome counter and the event journal.
func TestRecordRecovery(t *testing.T) {
	s := New()
	rec := testRecord(7, "recovered")
	s.RecordRecovery(rec)

	snap, ok := s.LastRecoveryTrace()
	if !ok {
		t.Fatal("no trace retained")
	}
	rec.ID = 1
	if !reflect.DeepEqual(snap, rec) {
		t.Fatalf("retained %+v, want %+v", snap, rec)
	}
	hists := s.Snapshot().Histograms
	for _, sp := range append(rec.Spans, Span{Stage: "wall", Duration: rec.Wall}) {
		if h := hists["recovery.stage."+sp.Stage+"_ns"]; h.Count != 1 || h.Max != sp.Duration {
			t.Errorf("recovery.stage.%s_ns = %d observations, max %v; want 1 of %v", sp.Stage, h.Count, h.Max, sp.Duration)
		}
	}
	if s.Counter("recovery.outcome.recovered").Value() != 1 {
		t.Fatal("outcome counter not incremented")
	}
	if evs := s.Events(); len(evs) != 1 || evs[0].Kind != "recovery" {
		t.Fatalf("events = %v, want one recovery event", evs)
	}
}

func TestTraceRingBounds(t *testing.T) {
	s := New()
	for i := 0; i < traceRingCap+10; i++ {
		s.RecordRecovery(testRecord(i, "recovered"))
	}
	traces := s.RecoveryTraces()
	if len(traces) != traceRingCap {
		t.Fatalf("retained %d traces, want %d", len(traces), traceRingCap)
	}
	if traces[len(traces)-1].ID != traceRingCap+10 {
		t.Fatalf("last trace ID = %d, want %d", traces[len(traces)-1].ID, traceRingCap+10)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := New()
	s.Counter("a.count").Add(5)
	s.Gauge("b.gauge").Set(-3)
	s.Histogram("c.lat").Observe(time.Millisecond)
	s.Event("warn", "something %s", "odd")
	s.RecordRecovery(testRecord(2, "degraded"))

	var buf bytes.Buffer
	if err := s.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["a.count"] != 5 || got.Gauges["b.gauge"] != -3 {
		t.Fatalf("round-trip lost metrics: %+v", got)
	}
	if got.Histograms["c.lat"].Count != 1 {
		t.Fatalf("round-trip lost histogram: %+v", got.Histograms)
	}
	if len(got.Events) != 2 { // "warn" + the trace's "recovery" event
		t.Fatalf("round-trip events = %d, want 2", len(got.Events))
	}
	if len(got.Recoveries) != 1 || got.Recoveries[0].Outcome != "degraded" {
		t.Fatalf("round-trip lost traces: %+v", got.Recoveries)
	}

	// Text export renders without error and mentions the instruments.
	buf.Reset()
	if err := s.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.count", "b.gauge", "c.lat", "recovery #1"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("text export missing %q:\n%s", want, buf.String())
		}
	}
}

func TestNilSafety(t *testing.T) {
	var s *Sink
	// Every method on a nil sink and nil instruments must be a no-op.
	s.Counter("x").Inc()
	s.Counter("x").Add(3)
	_ = s.Counter("x").Value()
	s.Gauge("y").Set(1)
	s.Gauge("y").Add(1)
	_ = s.Gauge("y").Value()
	s.Histogram("z").Observe(time.Second)
	s.Histogram("z").ObserveNs(5)
	StartTimer(s.Histogram("z")).Stop()
	s.Event("k", "msg %d", 1)
	s.Reset()
	if s.Events() != nil || s.RecoveryTraces() != nil {
		t.Fatal("nil sink returned non-nil data")
	}
	if _, ok := s.LastRecoveryTrace(); ok {
		t.Fatal("nil sink returned a trace")
	}
	s.RecordRecovery(testRecord(0, "recovered"))
	snap := s.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil sink snapshot has counters")
	}
}

func TestNilPathAllocFree(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		h.ObserveNs(10)
		StartTimer(h).Stop()
	})
	if allocs != 0 {
		t.Fatalf("disabled instrument path allocates: %v allocs/op", allocs)
	}
}

func TestReset(t *testing.T) {
	s := New()
	c := s.Counter("r.count")
	c.Add(9)
	s.Gauge("r.gauge").Set(4)
	s.Histogram("r.lat").Observe(time.Millisecond)
	s.Event("e", "one")
	s.RecordRecovery(testRecord(0, "recovered"))

	s.Reset()
	if c.Value() != 0 {
		t.Fatal("counter not reset in place")
	}
	snap := s.Snapshot()
	if snap.Gauges["r.gauge"] != 0 || snap.Histograms["r.lat"].Count != 0 {
		t.Fatalf("instruments not reset: %+v", snap)
	}
	if len(snap.Events) != 0 || len(snap.Recoveries) != 0 {
		t.Fatal("rings not reset")
	}
	// Handed-out pointer still works after reset.
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("counter unusable after reset")
	}
}

// TestConcurrentHammer drives every instrument type from many goroutines
// while snapshots are taken concurrently; it exists to run under -race.
func TestConcurrentHammer(t *testing.T) {
	s := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.Counter(fmt.Sprintf("hammer.c%d", id%4))
			g := s.Gauge("hammer.g")
			h := s.Histogram("hammer.h")
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(int64(n))
				h.ObserveNs(int64(n%1000) + 1)
				if n%64 == 0 {
					s.Event("hammer", "worker %d at %d", id, n)
				}
				if n%256 == 0 {
					s.RecordRecovery(testRecord(n, "recovered"))
				}
			}
		}(i)
	}
	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			snap := s.Snapshot()
			_ = snap.Counters
			_ = s.Events()
			_ = s.RecoveryTraces()
			s.Counter("hammer.snapshots").Inc()
		}
	}
	close(stop)
	wg.Wait()
	// Sanity: retained records keep the spans they were filed with.
	for _, tr := range s.RecoveryTraces() {
		if len(tr.Spans) != 2 {
			t.Fatalf("trace %d has %d spans", tr.ID, len(tr.Spans))
		}
	}
}

func TestDefaultSinkSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() is not a singleton")
	}
}
