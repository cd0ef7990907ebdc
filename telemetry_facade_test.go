package repro_test

import (
	"bytes"
	"testing"
	"time"

	"repro"
)

// TestFacadeRecoveryTrace is the end-to-end acceptance check through the
// public facade only: mount a supervised filesystem with an isolated
// telemetry sink, trigger a masked recovery, and assert the resulting trace
// is the recovery's one record: the seven stages of its Stats().Phases
// entry, in execution order, summing to its wall time.
func TestFacadeRecoveryTrace(t *testing.T) {
	dev := repro.NewMemDevice(16384)
	if _, err := repro.Format(dev); err != nil {
		t.Fatal(err)
	}
	reg := repro.NewFaultRegistry(1)
	reg.Arm(&repro.FaultSpecimen{
		ID: "facade-crash", Class: repro.BugCrash,
		Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "boom",
	})
	sink := repro.NewTelemetry()
	cfg := repro.Config{Telemetry: sink}
	cfg.Base.Injector = reg
	fs, err := repro.Mount(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()

	if err := fs.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/boom", 0o755); err != nil {
		t.Fatalf("crash should be masked by recovery, got %v", err)
	}

	if fs.Telemetry() != sink {
		t.Fatal("FS.Telemetry() does not return the configured sink")
	}
	tr, ok := sink.LastRecoveryTrace()
	if !ok {
		t.Fatal("recovery produced no trace")
	}
	st := fs.Stats()
	if len(st.Phases) != 1 {
		t.Fatalf("%d recovery records, want 1", len(st.Phases))
	}
	ph := st.Phases[0]
	want := []time.Duration{ph.Plan, ph.Reboot, ph.Fsck, ph.ShadowMount, ph.Replay, ph.Absorb, ph.Resume}
	if len(tr.Spans) != len(want) {
		t.Fatalf("trace has %d spans, want %d", len(tr.Spans), len(want))
	}
	var sum time.Duration
	for i, sp := range tr.Spans {
		if sp.Duration != want[i] {
			t.Errorf("span %d %s = %v, want the record's %v", i, sp.Stage, sp.Duration, want[i])
		}
		sum += sp.Duration
	}
	if sum != tr.Wall || tr.Wall != ph.Wall || st.TotalDowntime != ph.Wall {
		t.Errorf("spans sum to %v, trace wall %v, record wall %v, downtime %v: want all equal",
			sum, tr.Wall, ph.Wall, st.TotalDowntime)
	}
	if tr.Trigger != "panic" || tr.Outcome != "recovered" {
		t.Fatalf("trace = %+v, want panic/recovered", tr)
	}

	// The snapshot type round-trips through the facade aliases too.
	var snap repro.TelemetrySnapshot = sink.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []repro.TelemetryEvent = sink.Events()
	found := false
	for _, ev := range evs {
		if ev.Kind == "recovery" {
			found = true
		}
	}
	if !found {
		t.Fatal("no 'recovery' event in the journal")
	}
}

// TestFacadeDefaultTelemetry checks that a zero-value Config wires the
// process-global sink exposed as repro.DefaultTelemetry().
func TestFacadeDefaultTelemetry(t *testing.T) {
	dev := repro.NewMemDevice(16384)
	if _, err := repro.Format(dev); err != nil {
		t.Fatal(err)
	}
	fs, err := repro.Mount(dev, repro.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Kill()
	if fs.Telemetry() != repro.DefaultTelemetry() {
		t.Fatal("zero-value Config should feed DefaultTelemetry()")
	}
}
