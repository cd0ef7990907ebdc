package main

import (
	"io"
	"strings"
	"testing"
)

func reportOf(failed int64, metrics map[string]float64) *report {
	v := values{}
	for name, x := range metrics {
		v.set(name, x, 1)
	}
	return &report{Workloads: []*result{{Name: "meta_fsync", Correct: true, Attempted: 1000, Failed: failed, Metrics: v}}}
}

func TestCompare(t *testing.T) {
	base := reportOf(0, map[string]float64{
		"ops_per_s": 1000, "client.op_p99_us": 100, "client.sync_p50_us": 50, "journal.commit_p50_us": 10,
	})
	cases := []struct {
		name string
		cand *report
		want int
		mark string
	}{
		{"identical", base, 0, ""},
		{"within bounds", reportOf(0, map[string]float64{
			"ops_per_s": 950, "client.op_p99_us": 105, "client.sync_p50_us": 52, "journal.commit_p50_us": 10}), 0, ""},
		{"throughput fell by more than its bound", reportOf(0, map[string]float64{
			"ops_per_s": 700, "client.op_p99_us": 100, "client.sync_p50_us": 50, "journal.commit_p50_us": 10}), 1, "ops_per_s"},
		{"higher throughput is not a regression", reportOf(0, map[string]float64{
			"ops_per_s": 2000, "client.op_p99_us": 100, "client.sync_p50_us": 50, "journal.commit_p50_us": 10}), 0, ""},
		{"a client-side metric is held to its bound too", reportOf(0, map[string]float64{
			"ops_per_s": 1000, "client.op_p99_us": 100, "client.sync_p50_us": 80, "journal.commit_p50_us": 10}), 1, "client.sync_p50_us"},
		{"a per-layer metric never fails the comparison", reportOf(0, map[string]float64{
			"ops_per_s": 1000, "client.op_p99_us": 100, "client.sync_p50_us": 50, "journal.commit_p50_us": 500}), 0, ""},
		{"failed calls rose", reportOf(1, map[string]float64{
			"ops_per_s": 1000, "client.op_p99_us": 100, "client.sync_p50_us": 50, "journal.commit_p50_us": 10}), 1, "failed_ops_share"},
		{"an end-to-end metric went missing", reportOf(0, map[string]float64{
			"ops_per_s": 1000, "client.sync_p50_us": 50, "journal.commit_p50_us": 10}), 1, "client.op_p99_us"},
		{"a workload went missing", &report{}, 1, "meta_fsync"},
	}
	for _, c := range cases {
		var out strings.Builder
		if got := compare(&out, base, c.cand); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
		marked := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "<--") && strings.Contains(line, c.mark) {
				marked = true
			}
		}
		if c.mark != "" && !marked {
			t.Errorf("%s: no marked row for %s\n%s", c.name, c.mark, out.String())
		}
	}
	if compare(io.Discard, base, base) != 0 {
		t.Error("a report does not compare equal to itself")
	}
}
