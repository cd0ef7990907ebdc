package main

// metricClass says where a metric sits in the benchmark's contract.
type metricClass int

const (
	// endToEnd metrics exist on every workload and carry the regression
	// bound the driver enforces; BENCHMARK.json lists them as end_to_end.
	endToEnd metricClass = iota
	// clientSide metrics are end-to-end too (a user sees them, -compare
	// holds them to their bound) but exist only on some workloads.
	// BENCHMARK.json wants every end_to_end metric from every workload, so
	// it lists these under per_layer.
	clientSide
	// perLayer metrics describe one module; they have no bound.
	perLayer
)

// metricDef names one metric of the benchmark.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // share of the baseline it may worsen by; 0 for per-layer
	class  metricClass
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// regressionBound is the regression bound of every end-to-end metric. Repeat runs on a
// quiet machine spread 2-7% (quartile distance over median; tail percentiles
// up to 10%), which would support a bound near a tenth. But the two-CPU
// sandbox this was sized on drifts between regimes minutes long in which the
// same binary on the same seed runs 20-35% slower, and neither longer passes
// nor medians over windows remove that; a tighter bound would reject
// innocent changes. See README.md, Repeatability.
const regressionBound = 0.25

// metricDefs is every metric the benchmark reports, in reporting order.
// BENCHMARK.json must agree with it (TestBenchmarkJSON checks).
var metricDefs = []metricDef{
	{"setup_s", "s", false, regressionBound, endToEnd},
	{"ops_per_s", "op/s", true, regressionBound, endToEnd},
	{"op_p50_us", "us", false, regressionBound, endToEnd},

	// The call tail is the first of these: in a noisy regime its spread over
	// ten runs reached 32%, past any bound the driver accepts.
	{"client.op_p99_us", "us", false, regressionBound, clientSide},
	{"client.sync_p50_us", "us", false, regressionBound, clientSide},
	{"client.sync_p99_us", "us", false, regressionBound, clientSide},
	{"client.write_mb_per_s", "MB/s", true, regressionBound, clientSide},
	{"client.read_mb_per_s", "MB/s", true, regressionBound, clientSide},
	{"client.recovery_p50_ms", "ms", false, regressionBound, clientSide},
	{"client.recovery_p90_ms", "ms", false, regressionBound, clientSide},

	{"blockdev.read_calls_per_kop", "1/kop", false, 0, perLayer},
	{"blockdev.write_calls_per_kop", "1/kop", false, 0, perLayer},
	{"blockdev.flushes_per_kop", "1/kop", false, 0, perLayer},
	{"blockdev.blocks_per_read_call", "ratio", true, 0, perLayer},
	{"blockdev.blocks_per_write_call", "ratio", true, 0, perLayer},
	{"blockdev.write_amp", "ratio", false, 0, perLayer},
	{"blockdev.busy_share", "ratio", false, 0, perLayer},
	{"blockdev.errors", "count", false, 0, perLayer},

	{"cache.buffer_hit_ratio", "ratio", true, 0, perLayer},
	{"cache.inode_hit_ratio", "ratio", true, 0, perLayer},
	{"cache.dentry_hit_ratio", "ratio", true, 0, perLayer},
	{"cache.shard_lock_wait_ms", "ms", false, 0, perLayer},

	{"journal.commits_per_kop", "1/kop", false, 0, perLayer},
	{"journal.blocks_per_commit", "ratio", false, 0, perLayer},
	{"journal.group_batch_mean", "ratio", true, 0, perLayer},
	{"journal.flushes_per_sync", "ratio", false, 0, perLayer},
	{"journal.checkpoints", "1/kop", false, 0, perLayer},
	{"journal.commit_p50_us", "us", false, 0, perLayer},
	{"journal.probe_commit_us", "us", false, 0, perLayer},

	{"basefs.raw_ops_per_s", "op/s", true, 0, perLayer},
	{"basefs.sync_rounds_per_kop", "1/kop", false, 0, perLayer},
	{"basefs.delalloc_write_runs_per_kop", "1/kop", false, 0, perLayer},

	{"oplog.appends_per_kop", "1/kop", false, 0, perLayer},
	{"oplog.append_p50_ns", "ns", false, 0, perLayer},
	{"oplog.peak_len", "count", false, 0, perLayer},
	{"oplog.truncations", "1/kop", false, 0, perLayer},
	{"oplog.probe_append_ns", "ns", false, 0, perLayer},

	{"core.self_share", "ratio", false, 0, perLayer},
	{"core.fence_wait_ms", "ms", false, 0, perLayer},
	{"core.recoveries", "count", false, 0, perLayer},
	{"core.degradations", "count", false, 0, perLayer},
	{"core.app_failures", "count", false, 0, perLayer},
	{"core.ops_replayed_per_recovery", "ratio", false, 0, perLayer},
	{"core.ops_reused_per_recovery", "ratio", true, 0, perLayer},
	{"core.fsck_scoped_share", "ratio", true, 0, perLayer},
	{"core.downtime_share", "ratio", false, 0, perLayer},
	{"core.stage.reboot_p50_ms", "ms", false, 0, perLayer},
	{"core.stage.fsck_p50_ms", "ms", false, 0, perLayer},
	{"core.stage.replay_p50_ms", "ms", false, 0, perLayer},
	{"core.stage.install_p50_ms", "ms", false, 0, perLayer},

	{"shadowfs.replay_ops_per_s", "op/s", true, 0, perLayer},
	{"fsck.full_check_ms", "ms", false, 0, perLayer},

	{"fswire.bytes_per_op", "B/op", false, 0, perLayer},
	{"fswire.errs", "count", false, 0, perLayer},
	{"fswire.batched_write_share", "ratio", true, 0, perLayer},
	{"fswire.stream_chunks", "1/kop", false, 0, perLayer},
	{"fswire.rtt_p50_us", "us", false, 0, perLayer},
	{"fswire.floor_ops_per_s", "op/s", true, 0, perLayer},
	{"fswire.self_share", "ratio", false, 0, perLayer},

	{"volmgr.shed", "count", false, 0, perLayer},
	{"volmgr.throttle_ms", "ms", false, 0, perLayer},
	{"volmgr.op_p50_us", "us", false, 0, perLayer},
	{"volmgr.rebalances", "count", false, 0, perLayer},

	{"process.alloc_b_per_op", "B/op", false, 0, perLayer},
	{"process.allocs_per_op", "1/op", false, 0, perLayer},
	{"process.gc_pause_ms", "ms", false, 0, perLayer},
	{"process.heap_peak_mb", "MB", false, 0, perLayer},
	{"process.goroutines_peak", "count", false, 0, perLayer},

	{"bench.trace_overhead_share", "ratio", false, 0, perLayer},
	{"bench.spans", "count", true, 0, perLayer},
}

func findMetric(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].name == name {
			return &metricDefs[i]
		}
	}
	return nil
}

// value is one measured metric. N is the number of samples behind it (calls
// timed, recoveries seen, ops counted), 0 where the notion does not apply.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// values collects a workload's metrics by name. A metric that does not apply
// to the workload is simply absent.
type values map[string]value

func (v values) set(name string, x float64, n int64) {
	v[name] = value{Value: x, Unit: findMetric(name).unit, N: n}
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
