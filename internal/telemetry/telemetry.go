// Package telemetry is the always-on observability subsystem threaded
// through every layer of the repository: sharded atomic counters and gauges,
// log2-bucketed latency histograms, a bounded ring-buffer event journal for
// WARNs / contained panics / fault-injection firings / recovery outcomes,
// and a bounded ring of finished recovery records (RecordRecovery), each
// with one span per recovery stage as the supervisor clocked it.
//
// The paper's central claims are quantitative — common-case performance is
// the base's (§2.3), recovery latency is linear in op-log length (§4.3) —
// and this package makes those numbers visible from the running system
// rather than only from one-shot experiment harnesses: cmd/fsstats dumps a
// snapshot from a live or completed run, and cmd/raedemo prints the stage
// table of every recovery.
//
// Cost model: every instrument type (*Sink, *Counter, *Gauge, *Histogram)
// is nil-safe, so a disabled instrumentation point is a single
// pointer check — no clock reads, no allocation, no atomics. Instrumented
// layers resolve named instruments once at construction and hold the
// (possibly nil) pointers.
package telemetry

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sink is the telemetry hub: a registry of named instruments plus the event
// journal and recovery-trace ring. A nil *Sink is valid; every method
// no-ops, and instrument getters return nil instruments that also no-op.
type Sink struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	events      eventRing
	traces      traceRing
	recoverySeq atomic.Int64
	start       time.Time
}

// New creates an empty sink.
func New() *Sink {
	return &Sink{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		start:    time.Now(),
	}
}

// defaultSink is the process-wide sink that supervisors use when no explicit
// sink is configured: always-on observability for the common case.
var (
	defaultOnce sync.Once
	defaultSink *Sink
)

// Default returns the process-wide sink, creating it on first use.
func Default() *Sink {
	defaultOnce.Do(func() { defaultSink = New() })
	return defaultSink
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op counter) on a nil sink.
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = newCounter()
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil sink.
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil sink.
func (s *Sink) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// Event appends a formatted record to the event journal. No-op on nil.
func (s *Sink) Event(kind, format string, args ...any) {
	if s == nil {
		return
	}
	s.events.record(kind, fmt.Sprintf(format, args...))
}

// Events returns a chronological copy of the retained event journal.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events.events()
}

// RecoveryTraces returns the retained completed recovery traces, oldest
// first.
func (s *Sink) RecoveryTraces() []TraceSnapshot {
	if s == nil {
		return nil
	}
	return s.traces.all()
}

// LastRecoveryTrace returns the most recent completed recovery trace.
func (s *Sink) LastRecoveryTrace() (TraceSnapshot, bool) {
	if s == nil {
		return TraceSnapshot{}, false
	}
	return s.traces.last()
}

// Reset zeroes every registered instrument in place (handed-out pointers
// stay valid) and clears the event journal and trace ring. Sequence numbers
// stay monotonic. Benchmark drivers use it to separate series.
func (s *Sink) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, c := range s.counters {
		c.reset()
	}
	for _, g := range s.gauges {
		g.Set(0)
	}
	for _, h := range s.hists {
		h.reset()
	}
	s.mu.Unlock()
	s.events.reset()
	s.traces.reset()
}

// Snapshot captures every instrument, the retained events, and the retained
// recovery traces at one point in time.
func (s *Sink) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{Time: time.Now()}
	}
	snap := Snapshot{
		Time:        time.Now(),
		Uptime:      time.Since(s.start),
		Counters:    map[string]int64{},
		Gauges:      map[string]int64{},
		Histograms:  map[string]HistSnapshot{},
		TotalEvents: s.events.total(),
	}
	s.mu.Lock()
	for name, c := range s.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range s.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range s.hists {
		snap.Histograms[name] = h.Snapshot()
	}
	s.mu.Unlock()
	snap.Events = s.events.events()
	snap.Recoveries = s.traces.all()
	return snap
}

// Handler serves the sink as an expvar-style HTTP endpoint: JSON by
// default, human text with ?format=text.
func (s *Sink) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := s.Snapshot()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = snap.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = snap.WriteJSON(w)
	})
}

// sortedKeys returns map keys in stable order for deterministic exports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
