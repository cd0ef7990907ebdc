package main

import (
	"runtime"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disklayout"
	"repro/internal/telemetry"
)

// reading is every counter the program publishes, sampled at one instant.
// Per-layer metrics are differences between the reading taken when the
// measured region starts and the one taken when it ends, so set-up traffic
// never counts.
type reading struct {
	dev    blockdev.StatsSnapshot // summed over the rig's devices
	tel    telemetry.Snapshot     // every sink, merged
	core   core.Stats             // summed over the rig's supervisors
	mem    runtime.MemStats
	busyNs int64 // time inside device calls, from the decorator
}

// addStats adds sign x s to the device counters in dst.
func addStats(dst *blockdev.StatsSnapshot, s blockdev.StatsSnapshot, sign int64) {
	dst.Reads += sign * s.Reads
	dst.Writes += sign * s.Writes
	dst.Flushes += sign * s.Flushes
	dst.ReadErrors += sign * s.ReadErrors
	dst.WriteErrors += sign * s.WriteErrors
	dst.ReadCalls += sign * s.ReadCalls
	dst.WriteCalls += sign * s.WriteCalls
}

func (r *rig) read() reading {
	var rd reading
	for _, mem := range r.mems {
		if mem == nil {
			continue
		}
		addStats(&rd.dev, mem.Stats().Snapshot(), 1)
	}
	for _, sup := range r.sups {
		if sup == nil {
			continue
		}
		s := sup.Stats()
		rd.core.Recoveries += s.Recoveries
		rd.core.Degradations += s.Degradations
		rd.core.AppFailures += s.AppFailures
		rd.core.OpsReplayed += s.OpsReplayed
		rd.core.OpsReused += s.OpsReused
		rd.core.FsckFull += s.FsckFull
		rd.core.FsckScoped += s.FsckScoped
		rd.core.TotalDowntime += s.TotalDowntime
		rd.core.Phases = append(rd.core.Phases, s.Phases...)
		rd.core.PeakLogLen = max(rd.core.PeakLogLen, s.PeakLogLen)
	}
	rd.tel = r.snapshot()
	if r.dev != nil {
		rd.busyNs = r.dev.busyNs.Load()
	}
	runtime.ReadMemStats(&rd.mem)
	return rd
}

const usPerNs, msPerNs = 1e-3, 1e-6

// clientMetrics derives the metrics a caller sees from one pass. A
// percentile the sample cannot support is left out.
func clientMetrics(w *workload, p *pass, v values) {
	v.set("ops_per_s", p.opsPerSec(), p.ops)
	calls := func(w *window) []uint32 { return w.lat }
	barriers := func(w *window) []uint32 { return w.syncLat }
	pct := func(name string, pick func(*window) []uint32, whole []uint32, q float64) {
		if x, err := p.quantile(pick, whole, q); err == nil {
			v.set(name, x*usPerNs, int64(len(whole)))
		}
	}
	pct("op_p50_us", calls, p.lat, 0.50)
	pct("client.op_p99_us", calls, p.lat, 0.99)
	pct("client.sync_p50_us", barriers, p.syncLat, 0.50)
	pct("client.sync_p99_us", barriers, p.syncLat, 0.99)
	for _, q := range []struct {
		name string
		q    float64
	}{{"client.recovery_p50_ms", 0.50}, {"client.recovery_p90_ms", 0.90}} {
		if x, err := percentile(p.recov, q.q); err == nil {
			v.set(q.name, x*msPerNs, int64(len(p.recov)))
		}
	}
	if w.mix != mixStream {
		return // small-file mixes are bound by calls, not bytes
	}
	// Bytes moved per second spent in the calls that move them: writes plus
	// the barriers that make them durable, and reads.
	var rdBytes, wrBytes, rdNs, wrNs int64
	for _, c := range p.clients {
		rdBytes, wrBytes, rdNs, wrNs = rdBytes+c.rdBytes, wrBytes+c.wrBytes, rdNs+c.rdNs, wrNs+c.wrNs
	}
	v.set("client.write_mb_per_s", float64(wrBytes)/1e6/(float64(wrNs)/1e9), wrBytes)
	v.set("client.read_mb_per_s", float64(rdBytes)/1e6/(float64(rdNs)/1e9), rdBytes)
}

// layerMetrics derives the per-layer metrics of one pass from the counters
// the program publishes.
func layerMetrics(w *workload, r *rig, p *pass, before, after reading, v values) {
	kop := float64(p.ops) / 1000
	counter := func(name string) float64 {
		return float64(after.tel.Counters[name] - before.tel.Counters[name])
	}
	hist := func(name string) telemetry.HistSnapshot {
		return histDelta(after.tel.Histograms[name], before.tel.Histograms[name])
	}
	hitRatio := func(prefix string) float64 {
		hits, misses := counter(prefix+".hits"), counter(prefix+".misses")
		return ratio(hits, hits+misses)
	}

	dev := after.dev
	addStats(&dev, before.dev, -1)
	var wrBytes int64
	for _, c := range p.clients {
		wrBytes += c.wrBytes
	}
	v.set("blockdev.read_calls_per_kop", float64(dev.ReadCalls)/kop, dev.ReadCalls)
	v.set("blockdev.write_calls_per_kop", float64(dev.WriteCalls)/kop, dev.WriteCalls)
	v.set("blockdev.flushes_per_kop", float64(dev.Flushes)/kop, dev.Flushes)
	v.set("blockdev.blocks_per_read_call", ratio(float64(dev.Reads), float64(dev.ReadCalls)), dev.ReadCalls)
	v.set("blockdev.blocks_per_write_call", ratio(float64(dev.Writes), float64(dev.WriteCalls)), dev.WriteCalls)
	v.set("blockdev.write_amp", ratio(float64(dev.Writes)*disklayout.BlockSize, float64(wrBytes)), dev.Writes)
	v.set("blockdev.errors", float64(dev.ReadErrors+dev.WriteErrors), 0)
	if r.dev != nil {
		v.set("blockdev.busy_share", float64(after.busyNs-before.busyNs)/float64(p.elapsed), 0)
	}

	v.set("cache.buffer_hit_ratio", hitRatio("cache.buffer"), 0)
	v.set("cache.inode_hit_ratio", hitRatio("cache.inode"), 0)
	v.set("cache.dentry_hit_ratio", hitRatio("cache.dentry"), 0)
	lockWait := hist("cache.shard.lock_wait")
	v.set("cache.shard_lock_wait_ms", float64(lockWait.Sum)*msPerNs, lockWait.Count)

	commits, rounds := counter("journal.commits"), counter("basefs.sync.rounds")
	if commits > 0 {
		batch, lat := hist("journal.group.batch_size"), hist("journal.commit.latency")
		v.set("journal.commits_per_kop", commits/kop, int64(commits))
		v.set("journal.blocks_per_commit", counter("journal.committed_blocks")/commits, int64(commits))
		// The batch-size histogram is fed sizes, not durations: its sum is
		// the number of callers coalesced.
		v.set("journal.group_batch_mean", ratio(float64(batch.Sum), float64(batch.Count)), batch.Count)
		v.set("journal.flushes_per_sync", ratio(float64(dev.Flushes), rounds), int64(rounds))
		v.set("journal.checkpoints", counter("journal.checkpoints")/kop, int64(counter("journal.checkpoints")))
		v.set("journal.commit_p50_us", histQuantile(lat, 0.5)*usPerNs, lat.Count)
	}
	v.set("basefs.sync_rounds_per_kop", rounds/kop, int64(rounds))
	v.set("basefs.delalloc_write_runs_per_kop", counter("extent.delalloc.write_runs")/kop, int64(counter("extent.delalloc.write_runs")))

	appendNs := hist("oplog.append_ns")
	v.set("oplog.appends_per_kop", counter("oplog.appends")/kop, int64(counter("oplog.appends")))
	v.set("oplog.append_p50_ns", histQuantile(appendNs, 0.5), appendNs.Count)
	v.set("oplog.peak_len", float64(after.core.PeakLogLen), 0)
	v.set("oplog.truncations", counter("oplog.truncations")/kop, int64(counter("oplog.truncations")))

	rec := after.core.Recoveries - before.core.Recoveries
	fenceWait := hist("core.fence.wait_ns")
	v.set("core.fence_wait_ms", float64(fenceWait.Sum)*msPerNs, fenceWait.Count)
	v.set("core.recoveries", float64(rec), 0)
	v.set("core.degradations", float64(after.core.Degradations-before.core.Degradations), 0)
	v.set("core.app_failures", float64(after.core.AppFailures-before.core.AppFailures), 0)
	if rec > 0 {
		checks := after.core.FsckFull + after.core.FsckScoped - before.core.FsckFull - before.core.FsckScoped
		v.set("core.ops_replayed_per_recovery", float64(after.core.OpsReplayed-before.core.OpsReplayed)/float64(rec), rec)
		v.set("core.ops_reused_per_recovery", float64(after.core.OpsReused-before.core.OpsReused)/float64(rec), rec)
		v.set("core.fsck_scoped_share", ratio(float64(after.core.FsckScoped-before.core.FsckScoped), float64(checks)), checks)
		v.set("core.downtime_share", float64(after.core.TotalDowntime-before.core.TotalDowntime)/float64(p.elapsed), rec)
		phases := after.core.Phases[len(before.core.Phases):]
		stage := func(name string, pick func(core.RecoveryPhases) time.Duration) {
			ms := make([]float64, len(phases))
			for i, ph := range phases {
				ms[i] = float64(pick(ph)) * msPerNs
			}
			v.set(name, median(ms), int64(len(ms)))
		}
		stage("core.stage.reboot_p50_ms", func(ph core.RecoveryPhases) time.Duration { return ph.Reboot })
		stage("core.stage.fsck_p50_ms", func(ph core.RecoveryPhases) time.Duration { return ph.Fsck })
		stage("core.stage.replay_p50_ms", func(ph core.RecoveryPhases) time.Duration { return ph.Replay })
		stage("core.stage.install_p50_ms", func(ph core.RecoveryPhases) time.Duration { return ph.Absorb })
	}

	if w.remote {
		wireOps := counter("fswire.ops")
		var volOps telemetry.HistSnapshot
		for i := 0; i < w.clients; i++ {
			volOps = telemetry.MergeHist(volOps, hist("volmgr.op_ns."+volName(i)))
		}
		v.set("fswire.bytes_per_op", ratio(counter("fswire.bytes"), wireOps), int64(wireOps))
		v.set("fswire.errs", counter("fswire.errs"), 0)
		v.set("fswire.batched_write_share", ratio(counter("fswire.batch.writes"), float64(countKind(p, opWrite))), countKind(p, opWrite))
		v.set("fswire.stream_chunks", counter("fswire.stream.chunks")/kop, int64(counter("fswire.stream.chunks")))
		v.set("volmgr.shed", counter("volmgr.qos.shed"), 0)
		throttle := hist("volmgr.qos.throttle_ns")
		v.set("volmgr.throttle_ms", float64(throttle.Sum)*msPerNs, throttle.Count)
		v.set("volmgr.op_p50_us", histQuantile(volOps, 0.5)*usPerNs, volOps.Count)
		v.set("volmgr.rebalances", counter("volmgr.cache.rebalance"), 0)
	}

	v.set("process.alloc_b_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(p.ops), p.ops)
	v.set("process.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/float64(p.ops), p.ops)
	v.set("process.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)*msPerNs, int64(after.mem.NumGC-before.mem.NumGC))
}

// countKind counts the calls of one kind the pass executed.
func countKind(p *pass, k opKind) int64 {
	var n int64
	for _, c := range p.clients {
		perLap, partial := 0, 0
		for i := range c.t.lap {
			if c.t.lap[i].kind == k {
				perLap++
				if i < c.pos {
					partial++
				}
			}
		}
		n += int64(c.laps*perLap + partial)
	}
	return n
}
