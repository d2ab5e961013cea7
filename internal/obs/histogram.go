package obs

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bound histogram, the registry's one distribution
// kind: exponential (log-scale) default buckets for latencies, explicit
// bounds for counts such as ingest drain sizes. Every bucket is an atomic
// counter, so Observe is lock-free and cheap enough for per-request paths —
// the HTTP middleware observes one per request. The same nil-safety
// contract as the other metric kinds applies: every method works on a nil
// receiver and does nothing.
//
// Bounds are upper bucket edges in ascending order (Prometheus `le`
// semantics: bucket i counts observations ≤ bounds[i]); one implicit +Inf
// overflow bucket follows the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// DefaultLatencyBounds are the default bucket edges: ~1.6× steps from 100µs
// to 10s (five buckets per decade). Log-scale spacing keeps relative error
// bounded everywhere in the range, so a 1ms p50 and a 9ms p99 land in
// different buckets — uniform 10ms buckets would collapse both into bucket
// zero and report p50 == p99 (see TestHistogramDistinguishesSubTenMS).
func DefaultLatencyBounds() []float64 {
	bounds := make([]float64, 0, 26)
	for _, decade := range []float64{1e-4, 1e-3, 1e-2, 1e-1, 1} {
		for _, m := range []float64{1, 1.6, 2.5, 4, 6.3} {
			// Round to the nearest representable short decimal so the `le`
			// labels render clean (0.16, not 0.16000000000000003).
			b, _ := strconv.ParseFloat(strconv.FormatFloat(decade*m, 'g', 2, 64), 64)
			bounds = append(bounds, b)
		}
	}
	return append(bounds, 10)
}

// newHistogram builds a histogram over the given ascending bounds. Panics on
// empty, non-finite, or non-ascending bounds — caller bugs.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	own := append([]float64(nil), bounds...)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: non-finite histogram bucket bound")
		}
		if i > 0 && b <= own[i-1] {
			panic("obs: histogram bucket bounds must ascend")
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Int64, len(own)+1)}
}

// Observe records one value (seconds, for latency histograms). Lock-free;
// no-op on a nil histogram. Non-finite values are dropped: NaN has no bucket
// and ±Inf would poison the running sum.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	// SearchFloat64s returns the first i with bounds[i] >= v — exactly the
	// `le` bucket; v beyond every bound lands in the +Inf overflow bucket.
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records one duration. No-op on a nil histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// BucketCount is one cumulative bucket of a histogram snapshot. LE is the
// upper bound formatted as a Prometheus `le` label value ("+Inf" for the
// overflow bucket) — a string so snapshots stay JSON-encodable.
type BucketCount struct {
	LE    string `json:"le"`
	Count int64  `json:"count"` // cumulative: observations ≤ LE
}

// HistogramStats is a histogram snapshot. Quantiles interpolate linearly
// within the containing bucket (the Prometheus histogram_quantile rule);
// Count and Sum are exact.
type HistogramStats struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// formatLE renders a bucket bound the way Prometheus text exposition expects.
func formatLE(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Stats snapshots the histogram; the zero HistogramStats on a nil or empty
// histogram. Concurrent Observes may land between bucket loads — Count is
// derived from the loaded buckets, so the snapshot is always internally
// consistent (the +Inf cumulative count equals Count).
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return HistogramStats{}
	}
	s := HistogramStats{
		Count:   total,
		Sum:     math.Float64frombits(h.sum.Load()),
		Buckets: make([]BucketCount, len(counts)),
	}
	s.Mean = s.Sum / float64(total)
	cum := int64(0)
	for i, c := range counts {
		cum += c
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{LE: formatLE(le), Count: cum}
	}
	s.P50 = quantileFromBuckets(h.bounds, counts, total, 0.50)
	s.P95 = quantileFromBuckets(h.bounds, counts, total, 0.95)
	s.P99 = quantileFromBuckets(h.bounds, counts, total, 0.99)
	return s
}

// quantileFromBuckets interpolates the q-quantile linearly within the bucket
// containing the target rank; the overflow bucket reports the last finite
// bound (quantiles clamp, matching histogram_quantile on a +Inf bucket hit).
func quantileFromBuckets(bounds []float64, counts []int64, total int64, q float64) float64 {
	target := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(target-cum)/float64(c)
		}
		cum = next
	}
	return bounds[len(bounds)-1]
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}
