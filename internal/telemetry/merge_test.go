package telemetry

import (
	"testing"
	"time"
)

func TestMergeCountersGaugesEvents(t *testing.T) {
	a := New()
	a.Counter("ops").Add(2)
	a.Counter("only.a").Add(7)
	a.Gauge("depth").Set(3)
	a.Event("x", "first")
	b := New()
	b.Counter("ops").Add(3)
	b.Gauge("depth").Set(4)
	b.Event("x", "second")

	m := Merge(a.Snapshot(), b.Snapshot())
	if m.Counters["ops"] != 5 {
		t.Fatalf("ops = %d, want 5", m.Counters["ops"])
	}
	if m.Counters["only.a"] != 7 {
		t.Fatalf("only.a = %d, want 7", m.Counters["only.a"])
	}
	if m.Gauges["depth"] != 7 {
		t.Fatalf("depth = %d, want 7 (gauges sum)", m.Gauges["depth"])
	}
	if m.TotalEvents != 2 || len(m.Events) != 2 {
		t.Fatalf("events: total=%d retained=%d, want 2/2", m.TotalEvents, len(m.Events))
	}
	for i := 1; i < len(m.Events); i++ {
		if m.Events[i].Time.Before(m.Events[i-1].Time) {
			t.Fatal("merged events not in time order")
		}
	}
}

// TestMergeHistExact: with raw buckets present, the merged quantiles come
// from the combined distribution, not from taking the worse per-snapshot
// quantile.
func TestMergeHistExact(t *testing.T) {
	a := New()
	b := New()
	for i := 0; i < 100; i++ {
		a.Histogram("lat").Observe(time.Millisecond)      // fast tenant
		b.Histogram("lat").Observe(16 * time.Millisecond) // slow tenant
	}
	sa, sb := a.Snapshot().Histograms["lat"], b.Snapshot().Histograms["lat"]
	if len(sa.Buckets) == 0 || len(sb.Buckets) == 0 {
		t.Fatal("snapshots missing raw buckets")
	}

	m := MergeHist(sa, sb)
	if m.Count != 200 {
		t.Fatalf("count = %d, want 200", m.Count)
	}
	// Rank 100 of 200 falls in the fast tenant's bucket: the exact merge
	// keeps p50 near 1ms. The conservative fallback would report ~16ms.
	if m.P50 > 5*time.Millisecond {
		t.Fatalf("exact-merge p50 = %v, want ~1ms bucket bound", m.P50)
	}
	if m.P99 < 10*time.Millisecond {
		t.Fatalf("merged p99 = %v, want in the slow tenant's range", m.P99)
	}
	if m.Max != sb.Max {
		t.Fatalf("merged max = %v, want %v", m.Max, sb.Max)
	}

	// Bucket-less snapshots (old exports) degrade to worst-of-quantiles.
	sa2, sb2 := sa, sb
	sa2.Buckets, sb2.Buckets = nil, nil
	f := MergeHist(sa2, sb2)
	if f.P50 != sb.P50 {
		t.Fatalf("fallback p50 = %v, want the worse side %v", f.P50, sb.P50)
	}

	// Zero-count sides are identity.
	if got := MergeHist(HistSnapshot{}, sa); got.Count != sa.Count || got.P50 != sa.P50 {
		t.Fatal("merge with empty left side should return right side")
	}
}

// TestMergeRecoveries: traces concatenate in start-time order.
func TestMergeRecoveries(t *testing.T) {
	a := New()
	a.RecordRecovery(testRecord(1, "recovered"))
	b := New()
	b.RecordRecovery(testRecord(2, "recovered"))

	m := Merge(a.Snapshot(), b.Snapshot())
	if len(m.Recoveries) != 2 {
		t.Fatalf("recoveries = %d, want 2", len(m.Recoveries))
	}
	if m.Recoveries[1].Start.Before(m.Recoveries[0].Start) {
		t.Fatal("merged recoveries not in start order")
	}
}
