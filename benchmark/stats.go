package main

import (
	"errors"
	"math"
	"sort"

	"repro/internal/telemetry"
)

// errTooFewSamples refuses a percentile the sample cannot support.
var errTooFewSamples = errors.New("fewer than ten samples beyond the percentile")

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of an ascending sample. It
// refuses a percentile with fewer than ten samples beyond it on either side,
// so a reported tail is never one outlier. Equal values are spread evenly
// over the unit above them, which keeps all digits of a quantile that lands
// in a run of ties instead of snapping it to the clock's resolution.
func percentile[T ~uint32 | ~int64](sorted []T, p float64) (float64, error) {
	n := len(sorted)
	rank := p * float64(n)
	k := int(rank)
	if k < minBeyond || n-1-k < minBeyond {
		return 0, errTooFewSamples
	}
	v := sorted[k]
	lo := sort.Search(n, func(i int) bool { return sorted[i] >= v })
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v })
	return float64(v) + (rank-float64(lo))/float64(hi-lo), nil
}

// median returns the middle of a small set of repeated measurements.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histDelta returns the observations h gained since base, bucket by bucket.
func histDelta(h, base telemetry.HistSnapshot) telemetry.HistSnapshot {
	d := telemetry.HistSnapshot{Count: h.Count - base.Count, Sum: h.Sum - base.Sum, Max: h.Max}
	d.Buckets = append([]int64(nil), h.Buckets...)
	for i, c := range base.Buckets {
		if i < len(d.Buckets) {
			d.Buckets[i] -= c
		}
	}
	return d
}

// histQuantile estimates the q-quantile in nanoseconds from log2 buckets,
// interpolating linearly inside the bucket that holds the rank. The
// program's own HistSnapshot.P50 reports the bucket's upper edge, which moves
// only when a latency doubles; this estimate moves with the distribution.
func histQuantile(h telemetry.HistSnapshot, q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Buckets {
		if c <= 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1) // bucket i holds [2^(i-1), 2^i)
			return lo + lo*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.Max)
}
