package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSON holds BENCHMARK.json, which the driver reads, to the
// tables in this package, which the benchmark prints from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 6 {
		t.Fatalf("BENCHMARK.json: %v, %d top-level keys, want 6", err, len(keys))
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Command) != 2 || spec.Command[0] != "bash" || spec.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", spec.Command)
	}
	if spec.RunSeconds < 8 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the suite has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := spec.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: %q %q, want %q %q", i, got.Name, got.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || regexp.MustCompile(`\n`).MatchString(w.why) {
			t.Errorf("workload %q breaks a limit of the contract", w.name)
		}
	}

	var e2e, layer []metricDef
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (%q) breaks a limit of the contract", d.name, d.unit)
		}
		seen[d.name] = true
		if d.class == endToEnd {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
		if (d.class == perLayer) != (d.bound == 0) || d.bound > 0.25 {
			t.Errorf("metric %q: class %d with bound %v", d.name, d.class, d.bound)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, the tables have %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better() {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, g, d.name, d.unit, d.better())
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, want %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2e, true)
	same("per_layer", spec.PerLayer, layer, false)
	if len(e2e) > 16 || len(layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's limits", len(e2e), len(layer))
	}
	if e2e[0].name != "setup_s" || e2e[0].unit != "s" || e2e[0].higher {
		t.Errorf("the contract requires setup_s in s, lower is better; have %+v", e2e[0])
	}
	for _, d := range e2e[1:] {
		if d.bound > e2e[0].bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
}
