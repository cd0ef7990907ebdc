package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Snapshot is a point-in-time export of a sink: every named instrument, the
// retained event journal, and the retained recovery traces. It serializes
// to JSON (machine consumption, cmd/fsstats -json, the HTTP endpoint) and
// renders as human text (cmd/fsstats).
type Snapshot struct {
	Time        time.Time               `json:"time"`
	Uptime      time.Duration           `json:"uptime"`
	Counters    map[string]int64        `json:"counters"`
	Gauges      map[string]int64        `json:"gauges"`
	Histograms  map[string]HistSnapshot `json:"histograms"`
	TotalEvents uint64                  `json:"total_events"`
	Events      []Event                 `json:"events"`
	Recoveries  []TraceSnapshot         `json:"recoveries"`
}

// WriteJSON serializes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot decodes a snapshot previously serialized by WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: decode snapshot: %w", err)
	}
	return s, nil
}

// WriteText renders the snapshot for humans: counters and gauges in sorted
// name order, histogram quantiles, recovery trace breakdowns, and the tail
// of the event journal.
func (s Snapshot) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "-- telemetry snapshot @ %s (uptime %v) --\n",
		s.Time.Format(time.RFC3339), s.Uptime.Round(time.Millisecond))
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-42s %12d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-42s %12d\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms (p50/p99/p999/max, n):")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-42s %10v %10v %10v %10v  n=%d\n",
				name, h.P50, h.P99, h.P999, h.Max, h.Count)
		}
	}
	if len(s.Recoveries) > 0 {
		fmt.Fprintf(w, "recovery traces (%d retained):\n", len(s.Recoveries))
		for _, tr := range s.Recoveries {
			fmt.Fprintf(w, "  %s\n", tr)
		}
	}
	if len(s.Events) > 0 {
		dropped := s.TotalEvents - uint64(len(s.Events))
		fmt.Fprintf(w, "event journal (%d retained, %d dropped):\n", len(s.Events), dropped)
		for _, e := range s.Events {
			fmt.Fprintf(w, "  %s\n", e)
		}
	}
	return nil
}

// Merge combines snapshots into one fleet rollup: counters and gauges sum
// name-wise, histograms merge bucket-exactly (MergeHist), events interleave
// in time order (keeping the most recent up to the journal's retention
// bound), and recovery traces concatenate. This is what turns N per-volume
// snapshots into the one fleet view cmd/fsstats -merge and the volume
// manager's FleetSnapshot render.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for _, s := range snaps {
		if s.Time.After(out.Time) {
			out.Time = s.Time
		}
		if s.Uptime > out.Uptime {
			out.Uptime = s.Uptime
		}
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			out.Gauges[name] += v
		}
		for name, h := range s.Histograms {
			out.Histograms[name] = MergeHist(out.Histograms[name], h)
		}
		out.TotalEvents += s.TotalEvents
		out.Events = append(out.Events, s.Events...)
		out.Recoveries = append(out.Recoveries, s.Recoveries...)
	}
	sort.SliceStable(out.Events, func(i, j int) bool {
		return out.Events[i].Time.Before(out.Events[j].Time)
	})
	if len(out.Events) > eventRingCap {
		out.Events = out.Events[len(out.Events)-eventRingCap:]
	}
	sort.SliceStable(out.Recoveries, func(i, j int) bool {
		return out.Recoveries[i].Start.Before(out.Recoveries[j].Start)
	})
	return out
}

// MergeHist combines two histogram snapshots. When both carry raw buckets the
// merge is exact: buckets sum and the quantiles are recomputed from the
// combined distribution. A snapshot without buckets (an old export) degrades
// gracefully: counts and sums still add, max still maxes, and each quantile
// takes the worse of the two — a conservative upper bound.
func MergeHist(a, b HistSnapshot) HistSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	m := HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	m.Mean = m.Sum / time.Duration(m.Count)
	m.Max = a.Max
	if b.Max > m.Max {
		m.Max = b.Max
	}
	if len(a.Buckets) > 0 && len(b.Buckets) > 0 {
		n := len(a.Buckets)
		if len(b.Buckets) > n {
			n = len(b.Buckets)
		}
		m.Buckets = make([]int64, n)
		for i := range m.Buckets {
			if i < len(a.Buckets) {
				m.Buckets[i] += a.Buckets[i]
			}
			if i < len(b.Buckets) {
				m.Buckets[i] += b.Buckets[i]
			}
		}
		m.P50 = histQuantile(m.Buckets, m.Count, 0.50, m.Max)
		m.P99 = histQuantile(m.Buckets, m.Count, 0.99, m.Max)
		m.P999 = histQuantile(m.Buckets, m.Count, 0.999, m.Max)
		return m
	}
	maxDur := func(x, y time.Duration) time.Duration {
		if x > y {
			return x
		}
		return y
	}
	m.P50 = maxDur(a.P50, b.P50)
	m.P99 = maxDur(a.P99, b.P99)
	m.P999 = maxDur(a.P999, b.P999)
	return m
}

// WriteTraceTable renders one recovery trace as an aligned per-phase table
// (phase, duration, note), the format cmd/raedemo prints after each masked
// bug.
func WriteTraceTable(w io.Writer, t TraceSnapshot) {
	fmt.Fprintf(w, "  recovery #%d: trigger=%s mode=%s log=%d ops, replayed=%d, outcome=%s\n",
		t.ID, t.Trigger, t.Mode, t.LogLen, t.OpsReplayed, t.Outcome)
	for _, sp := range t.Spans {
		note := ""
		if sp.Note != "" {
			note = "  (" + sp.Note + ")"
		}
		fmt.Fprintf(w, "    %-12s %12v%s\n", sp.Phase, sp.Duration, note)
	}
	fmt.Fprintf(w, "    %-12s %12v\n", "total", t.Total)
}
