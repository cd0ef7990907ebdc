package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end at the smoke sizing: set-up, the
// timed pass, the traced pass, every probe, the span file and the whole
// correctness gate, with measured passes well under a second each.
func TestSmoke(t *testing.T) {
	s := smokeSettings(1, t.TempDir())
	if s.seconds >= time.Second {
		t.Fatalf("smoke passes run for %v, want under a second", s.seconds)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, s, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.violations {
				t.Errorf("gate: %s", v)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, name := range []string{"setup_s", "ops_per_s", "op_p50_us",
				"basefs.raw_ops_per_s", "shadowfs.replay_ops_per_s", "fsck.full_check_ms",
				"journal.probe_commit_us", "oplog.probe_append_ns"} {
				if v, ok := res.Metrics[name]; !ok || v.Value == 0 {
					t.Errorf("%s missing or zero: %+v", name, v)
				}
			}
			if w.remote {
				for _, name := range []string{"fswire.rtt_p50_us", "fswire.floor_ops_per_s", "fswire.bytes_per_op", "volmgr.op_p50_us"} {
					if v := res.Metrics[name]; v.Value <= 0 {
						t.Errorf("%s = %v on a remote workload", name, v.Value)
					}
				}
			} else if v, ok := res.Metrics["core.self_share"]; !ok || v.Value >= 1 {
				t.Errorf("core.self_share = %v (present: %v), want a share of a supervised call", v.Value, ok)
			}
			if w.plantEvery > 0 {
				if rec := res.Metrics["core.recoveries"].Value; rec < 1 {
					t.Errorf("the storm recovered %v times", rec)
				}
				if res.Metrics["core.stage.install_p50_ms"].Value <= 0 {
					t.Error("no recovery stage times")
				}
			}
			for name := range res.Metrics {
				if findMetric(name) == nil {
					t.Errorf("metric %s is not in metricDefs", name)
				}
			}

			// The span file: JSON lines, ids unique, parents point at spans
			// that exist, as many lines as bench.spans says.
			f, err := os.Open(filepath.Join(s.outDir, "spans-"+w.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ids, parents, names := map[uint64]bool{}, []uint64{}, map[string]int{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var sp span
				if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if ids[sp.ID] || sp.End < sp.Start {
					t.Errorf("bad span %+v", sp)
				}
				ids[sp.ID] = true
				names[sp.Name]++
				if sp.Parent != 0 {
					parents = append(parents, sp.Parent)
				}
			}
			for _, p := range parents {
				if !ids[p] {
					t.Errorf("span parent %d is not in the file", p)
				}
			}
			if got := res.Metrics["bench.spans"].Value; int(got) != len(ids) {
				t.Errorf("bench.spans = %v, file has %d spans", got, len(ids))
			}
			want := []string{"client.op", "probe.basefs", "probe.shadowfs", "probe.journal", "probe.oplog"}
			switch {
			case w.pipelined:
				want = append(want, "fswire.call", "probe.fswire")
			case w.remote:
				want = append(want, "probe.fswire")
			default:
				want = append(want, "blockdev.write", "blockdev.flush")
			}
			for _, name := range want {
				if names[name] == 0 {
					t.Errorf("no %s span in the file (have %v)", name, names)
				}
			}
		})
	}
}

// TestGateCatchesViolations feeds the gate a run whose oracle is wrong and
// a storm that planted a fault no specimen fires on.
func TestGateCatchesViolations(t *testing.T) {
	s := smokeSettings(2, t.TempDir())
	s.seconds = 100 * time.Millisecond

	w := findWorkload("read_hot")
	pr, err := prepare(w, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pr.traces[0].lap {
		if o := &pr.traces[0].lap[i]; o.kind == opRead {
			o.retN++ // the oracle now expects one byte more than a read returns
			break
		}
	}
	r, clients, err := pr.bring(rigSystem, s.seed, nil, w.clients)
	if err != nil {
		t.Fatal(err)
	}
	p := measure(clients, s.seconds)
	if g := check(w, pr.sb, r, p); p.failed == 0 || len(g.violations) == 0 {
		t.Errorf("a wrong oracle went unnoticed: failed=%d violations=%v", p.failed, g.violations)
	}

	storm := findWorkload("fault_storm")
	s.scale = 0.2
	pr, err = prepare(storm, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pr.traces[0].lap {
		if o := &pr.traces[0].lap[i]; o.kind == opStat {
			o.fault = true // counted as planted, but nothing fires on a stat
			break
		}
	}
	r, clients, err = pr.bring(rigSystem, s.seed, nil, storm.clients)
	if err != nil {
		t.Fatal(err)
	}
	p = measure(clients, s.seconds)
	g := check(storm, pr.sb, r, p)
	if len(g.violations) == 0 {
		t.Errorf("planted %d faults, recovered fewer, and the gate passed", p.planted)
	}
}

// TestDriverLine checks the object the driver reads: exactly the contract's
// keys, the end-to-end metrics for a timed run and every other metric for a
// traced one.
func TestDriverLine(t *testing.T) {
	res := &result{Correct: true, Attempted: 10, Failed: 0, Metrics: values{}}
	res.Metrics.set("ops_per_s", 123.5, 10)
	res.Metrics.set("journal.commit_p50_us", 7, 3)
	for _, traced := range []bool{false, true} {
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int64
			Failed    *int64
			Metrics   map[string]map[string]any
		}
		raw := driverLine(res, traced)
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 4 {
			t.Fatalf("line %s: %v, %d keys", raw, err, len(keys))
		}
		if err := json.Unmarshal(raw, &line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("line %s: %v", raw, err)
		}
		n := 0
		for _, d := range metricDefs {
			m, ok := line.Metrics[d.name]
			if ok != ((d.class == endToEnd) != traced) {
				t.Errorf("traced=%v: metric %s present=%v", traced, d.name, ok)
			}
			if ok {
				n++
				if len(m) != 2 || m["unit"] != d.unit {
					t.Errorf("metric %s = %v, want value and unit %s", d.name, m, d.unit)
				}
			}
		}
		if n != len(line.Metrics) {
			t.Errorf("traced=%v: %d metrics in the line, %d known", traced, len(line.Metrics), n)
		}
	}
}
