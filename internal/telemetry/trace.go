package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one stage of a finished recovery and the time it took.
type Span struct {
	Stage    string        `json:"stage"`
	Duration time.Duration `json:"duration"`
}

// TraceSnapshot is one finished recovery record: the supervisor's stages in
// execution order, which sum to Wall exactly, plus the inputs that drive
// recovery cost (op-log length) and the outcome the application observed.
type TraceSnapshot struct {
	// ID is the per-sink recovery ordinal, starting at 1.
	ID int64 `json:"id"`
	// Trigger is the fault class that started recovery: "panic", "warn",
	// "freeze", or "result".
	Trigger string `json:"trigger"`
	// Mode is the failure-handling strategy ("rae", "crash-restart", ...).
	Mode string `json:"mode"`
	// LogLen is the recorded-operation count at detection (the linear cost
	// driver of §4.3).
	LogLen int `json:"log_len"`
	// OpsReplayed is how many operations the recovery re-executed.
	OpsReplayed int `json:"ops_replayed"`
	// Outcome is "recovered" (failure masked), "degraded" (fell back to
	// crash-restart semantics), "crash-restart" (baseline behavior) or
	// "failed" (no fresh instance could be mounted).
	Outcome string `json:"outcome"`
	// Start is the wall-clock detection time.
	Start time.Time `json:"start"`
	// Wall is the end-to-end recovery latency.
	Wall time.Duration `json:"wall"`
	// Spans holds every stage, in execution order; a stage the recovery
	// never ran has zero duration.
	Spans []Span `json:"spans"`
}

// String formats the record as a one-line stage breakdown for the event
// journal and text snapshots.
func (t TraceSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery #%d [%s/%s] log=%d replayed=%d wall=%v:",
		t.ID, t.Mode, t.Trigger, t.LogLen, t.OpsReplayed, t.Wall)
	for _, s := range t.Spans {
		fmt.Fprintf(&b, " %s=%v", s.Stage, s.Duration)
	}
	fmt.Fprintf(&b, " -> %s", t.Outcome)
	return b.String()
}

// traceRingCap bounds retained recovery traces per sink.
const traceRingCap = 64

// RecordRecovery files one finished recovery record: it numbers the record,
// observes each span in recovery.stage.<stage>_ns and the wall time in
// recovery.stage.wall_ns, counts the outcome, retains the record in the
// sink's ring and journals a "recovery" event. No-op on a nil sink.
func (s *Sink) RecordRecovery(t TraceSnapshot) {
	if s == nil {
		return
	}
	t.ID = s.recoverySeq.Add(1)
	for _, sp := range t.Spans {
		s.Histogram("recovery.stage." + sp.Stage + "_ns").Observe(sp.Duration)
	}
	s.Histogram("recovery.stage.wall_ns").Observe(t.Wall)
	s.Counter("recovery.outcome." + t.Outcome).Inc()
	s.traces.retain(t)
	s.Event("recovery", "%s", t.String())
}

// traceRing is the sink's bounded store of completed recovery traces.
type traceRing struct {
	mu  sync.Mutex
	buf []TraceSnapshot
}

func (r *traceRing) retain(t TraceSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < traceRingCap {
		r.buf = append(r.buf, t)
		return
	}
	copy(r.buf, r.buf[1:])
	r.buf[len(r.buf)-1] = t
}

func (r *traceRing) all() []TraceSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSnapshot, len(r.buf))
	copy(out, r.buf)
	return out
}

func (r *traceRing) last() (TraceSnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 {
		return TraceSnapshot{}, false
	}
	return r.buf[len(r.buf)-1], true
}

func (r *traceRing) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.buf[:0]
}
