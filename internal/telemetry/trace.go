package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// The six canonical recovery phases, in execution order. Every finished
// recovery trace contains exactly one span per phase; phases a particular
// recovery never reached (a baseline mode, or an early degrade) appear with
// zero duration so consumers can rely on the shape.
const (
	// PhaseDetect covers fault classification and recovery dispatch.
	PhaseDetect = "detect"
	// PhaseFence is raising the IO fence on the faulty instance's handle.
	PhaseFence = "fence"
	// PhaseReboot is the contained reboot: kill + journal replay + fresh mount.
	PhaseReboot = "reboot"
	// PhaseShadowExec is the shadow's image validation plus constrained and
	// autonomous re-execution of the recorded sequence.
	PhaseShadowExec = "shadow-exec"
	// PhaseHandoff is the metadata download: the base absorbing the shadow's
	// sealed update.
	PhaseHandoff = "handoff"
	// PhaseResume is answering the in-flight operation and re-arming the log.
	PhaseResume = "resume"
)

// Phases returns the canonical phase names in execution order.
func Phases() []string {
	return []string{PhaseDetect, PhaseFence, PhaseReboot, PhaseShadowExec, PhaseHandoff, PhaseResume}
}

// Span is one timed phase of a recovery trace.
type Span struct {
	Phase    string        `json:"phase"`
	Duration time.Duration `json:"duration"`
	// Note carries phase-specific detail ("fsck skipped", degrade reason).
	Note string `json:"note,omitempty"`
}

// TraceSnapshot is one completed recovery trace: per-phase wall-clock
// spans plus the inputs that drive recovery cost (op-log length) and the
// outcome the application observed.
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
	// OpsReplayed is how many operations the shadow re-executed.
	OpsReplayed int `json:"ops_replayed"`
	// Outcome is "recovered" (failure masked), "degraded" (fell back to
	// crash-restart semantics), or "crash-restart" (baseline behavior).
	Outcome string `json:"outcome"`
	// Start is the wall-clock detection time.
	Start time.Time `json:"start"`
	// Total is the end-to-end recovery latency.
	Total time.Duration `json:"total"`
	// Spans holds one entry per canonical phase, in execution order.
	Spans []Span `json:"spans"`
}

// Span returns the span for the named phase (zero Span if absent).
func (t TraceSnapshot) Span(phase string) Span {
	for _, s := range t.Spans {
		if s.Phase == phase {
			return s
		}
	}
	return Span{}
}

// String formats the trace as a one-line phase breakdown for demos and
// experiment tables.
func (t TraceSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery #%d [%s/%s] log=%d replayed=%d total=%v:",
		t.ID, t.Mode, t.Trigger, t.LogLen, t.OpsReplayed, t.Total)
	for _, s := range t.Spans {
		fmt.Fprintf(&b, " %s=%v", s.Phase, s.Duration)
		if s.Note != "" {
			fmt.Fprintf(&b, "(%s)", s.Note)
		}
	}
	fmt.Fprintf(&b, " -> %s", t.Outcome)
	return b.String()
}

// Trace is a recovery trace under construction. The supervisor begins one
// per detected fault, advances it through phases, and finishes it with the
// outcome. A nil *Trace is valid and records nothing, so a supervisor
// running without telemetry calls the same code unconditionally.
type Trace struct {
	sink *Sink

	mu       sync.Mutex
	snap     TraceSnapshot
	curPhase string
	curNote  string
	curT0    time.Time
	done     bool
}

// traceRingCap bounds retained recovery traces per sink.
const traceRingCap = 64

// StartRecovery opens a recovery trace and begins its detect phase. Returns
// nil on a nil sink.
func (s *Sink) StartRecovery(trigger, mode string, logLen int) *Trace {
	if s == nil {
		return nil
	}
	t := &Trace{sink: s}
	t.snap = TraceSnapshot{
		ID:      s.recoverySeq.Add(1),
		Trigger: trigger,
		Mode:    mode,
		LogLen:  logLen,
		Start:   time.Now(),
	}
	t.curPhase = PhaseDetect
	t.curT0 = t.snap.Start
	return t
}

// BeginPhase closes the current span and opens one for phase. Calls on a
// nil trace are no-ops.
func (t *Trace) BeginPhase(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeSpanLocked()
	t.curPhase = phase
	t.curNote = ""
	t.curT0 = time.Now()
}

// Note attaches detail to the currently open span.
func (t *Trace) Note(format string, args ...any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.curNote = fmt.Sprintf(format, args...)
}

// SetOpsReplayed records how many operations the shadow re-executed.
func (t *Trace) SetOpsReplayed(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snap.OpsReplayed = n
}

// closeSpanLocked finalizes the currently open span, if any.
func (t *Trace) closeSpanLocked() {
	if t.curPhase == "" {
		return
	}
	d := time.Since(t.curT0)
	if d < 0 {
		d = 0
	}
	t.snap.Spans = append(t.snap.Spans, Span{Phase: t.curPhase, Duration: d, Note: t.curNote})
	t.curPhase = ""
}

// Finish closes the trace with the outcome, pads any phase the recovery
// never reached with a zero-duration span (so every trace carries all six
// phases in canonical order), records per-phase latency histograms and the
// outcome counter, retains the trace in the sink's ring, and emits a
// "recovery" event. Calling Finish twice is a no-op.
func (t *Trace) Finish(outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.closeSpanLocked()
	t.snap.Outcome = outcome
	// Canonicalize: exactly one span per phase, execution order, zero-pad
	// the phases this recovery never entered.
	byPhase := make(map[string]Span, len(t.snap.Spans))
	for _, sp := range t.snap.Spans {
		if prev, ok := byPhase[sp.Phase]; ok {
			sp.Duration += prev.Duration
			if sp.Note == "" {
				sp.Note = prev.Note
			}
		}
		byPhase[sp.Phase] = sp
	}
	ordered := make([]Span, 0, len(Phases()))
	total := time.Duration(0)
	for _, name := range Phases() {
		sp, ok := byPhase[name]
		if !ok {
			sp = Span{Phase: name}
		}
		ordered = append(ordered, sp)
		total += sp.Duration
	}
	t.snap.Spans = ordered
	t.snap.Total = total
	snap := t.snap
	sink := t.sink
	t.mu.Unlock()

	for _, sp := range snap.Spans {
		sink.Histogram("recovery.phase." + sp.Phase).Observe(sp.Duration)
	}
	sink.Histogram("recovery.total").Observe(snap.Total)
	sink.Counter("recovery.outcome." + outcome).Inc()
	sink.retainTrace(snap)
	sink.Event("recovery", "%s", snap.String())
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
