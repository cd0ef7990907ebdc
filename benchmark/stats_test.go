package main

import (
	"errors"
	"math"
	"testing"

	"repro/internal/telemetry"
)

func ramp(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i)
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{20, 0.5, false},    // rank 10: only 9 samples above it
		{21, 0.5, true},     // rank 10: 10 below, 10 above
		{1000, 0.99, false}, // rank 990: 9 above
		{1100, 0.99, true},
		{100, 0.9, false},
		{110, 0.9, true},
		{5, 0.5, false},
		{0, 0.5, false},
	}
	for _, c := range cases {
		_, err := percentile(ramp(c.n), c.p)
		if got := err == nil; got != c.want {
			t.Errorf("percentile(n=%d, p=%v): accepted=%v, want %v", c.n, c.p, got, c.want)
		}
		if err != nil && !errors.Is(err, errTooFewSamples) {
			t.Errorf("percentile(n=%d, p=%v): unexpected error %v", c.n, c.p, err)
		}
	}
}

func TestPercentileValues(t *testing.T) {
	// Distinct values: the quantile is the value at the rank, plus the
	// fractional position inside its one-unit cell.
	got, err := percentile(ramp(1000), 0.5)
	if err != nil || got != 500 {
		t.Errorf("median of 0..999 = %v, %v; want 500", got, err)
	}
	// A run of ties is spread over the unit above the value, so a quantile
	// inside the run keeps its digits instead of snapping to the tie.
	ties := make([]uint32, 100)
	for i := range ties {
		ties[i] = 7
	}
	for p, want := range map[float64]float64{0.25: 7.25, 0.5: 7.5, 0.75: 7.75} {
		if got, err := percentile(ties, p); err != nil || math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(ties, %v) = %v, %v; want %v", p, got, err, want)
		}
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	s := telemetry.New()
	h := s.Histogram("x")
	for i := 0; i < 100; i++ {
		h.ObserveNs(1024) // bucket [1024, 2048)
	}
	snap := h.Snapshot()
	if got := histQuantile(snap, 0.5); got != 1536 {
		t.Errorf("midpoint of one log2 bucket = %v, want 1536", got)
	}
	for i := 0; i < 100; i++ {
		h.ObserveNs(5000) // bucket [4096, 8192)
	}
	delta := histDelta(h.Snapshot(), snap)
	if delta.Count != 100 {
		t.Fatalf("delta count = %d, want 100", delta.Count)
	}
	if got := histQuantile(delta, 0.5); got != 6144 {
		t.Errorf("median of the delta = %v, want 6144 (the second batch only)", got)
	}
	if got := histQuantile(telemetry.HistSnapshot{}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
