package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a tail
// read off fewer than ten samples is one slow request, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// ceil(q·n)-th smallest sample. It fails when fewer than minBeyond samples
// lie above that rank, so a percentile is never reported off too few samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// pcts resolves several percentiles of xs, failing on the first that lacks
// samples.
func pcts(xs []float64, qs ...float64) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, err := percentile(xs, q)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowed splits the samples into consecutive windows of the measured phase
// by due time and returns, for each percentile q, the window values of the
// q-percentile (each with ten samples beyond it). A run reports the median
// over its windows, so a burst of outside load (CPU steal on a shared host)
// moves the one window it falls in rather than the run's figure.
func windowed(ss []sample, window time.Duration, n int, qs ...float64) ([][]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("measured phase shorter than one %v window", window)
	}
	per := make([][]float64, n)
	for _, s := range ss {
		if w := int(s.due / window); w < n {
			per[w] = append(per[w], ms(s.latency()))
		}
	}
	vals := make([][]float64, len(qs))
	for w, xs := range per {
		ps, err := pcts(xs, qs...)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", w, err)
		}
		for i, p := range ps {
			vals[i] = append(vals[i], p)
		}
	}
	return vals, nil
}
