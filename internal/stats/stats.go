// Package stats provides the small numeric aggregation helpers the
// experiment harness uses to summarise repeated measurements.
package stats

import (
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the middle value (mean of the two middles for even length),
// or NaN for an empty slice. The input is not modified.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks, or NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Timer measures wall-clock durations for the harness.
type Timer struct{ start time.Time }

// StartTimer begins timing.
func StartTimer() *Timer { return &Timer{start: time.Now()} }

// ElapsedMS returns the elapsed time in milliseconds.
func (t *Timer) ElapsedMS() float64 {
	return float64(time.Since(t.start)) / float64(time.Millisecond)
}
