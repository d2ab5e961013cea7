package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramDistinguishesSubTenMS is the regression test for the
// degenerate-quantile bug: the old uniform Timer buckets (10ms wide over
// [0, 10s]) collapsed every sub-10ms request into bucket zero, so a service
// answering in 1ms and one answering in 9ms reported identical quantiles.
// The log-scale histogram keeps them an order of magnitude apart.
func TestHistogramDistinguishesSubTenMS(t *testing.T) {
	fast := newHistogram(DefaultLatencyBounds())
	slow := newHistogram(DefaultLatencyBounds())
	for i := 0; i < 1000; i++ {
		fast.Observe(0.001) // 1ms
		slow.Observe(0.009) // 9ms
	}
	fp, sp := fast.Stats().P50, slow.Stats().P50
	if fp >= sp {
		t.Fatalf("p50(1ms)=%g >= p50(9ms)=%g — buckets cannot tell them apart", fp, sp)
	}
	// Interpolated quantiles land inside the observation's bucket, so they
	// are within one bucket width (≤1.6×) of the truth, not 10× off.
	if fp > 0.0016 {
		t.Errorf("p50 of all-1ms observations = %g, want ≤ 0.0016", fp)
	}
	if sp < 0.0063 || sp > 0.016 {
		t.Errorf("p50 of all-9ms observations = %g, want in [0.0063, 0.016]", sp)
	}
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN(), math.Inf(1)} {
		h.Observe(v)
	}
	s := h.Stats()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5 (NaN/Inf dropped)", s.Count)
	}
	want := []BucketCount{{"1", 2}, {"2", 3}, {"4", 4}, {"+Inf", 5}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket[%d] = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	if s.Sum != 0.5+1+1.5+3+100 {
		t.Errorf("Sum = %g", s.Sum)
	}
	if s.Buckets[len(s.Buckets)-1].Count != s.Count {
		t.Error("+Inf bucket != Count")
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	// 10 observations ≤1, 10 in (1,2]: p50 sits exactly on the first bound,
	// p75 halfway through the second bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	s := h.Stats()
	if s.P50 != 1 {
		t.Errorf("P50 = %g, want 1", s.P50)
	}
	// All mass beyond the last bound clamps to it.
	over := newHistogram([]float64{1})
	over.Observe(50)
	if got := over.Stats().P99; got != 1 {
		t.Errorf("overflow quantile = %g, want clamp to 1", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DefaultLatencyBounds())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Stats()
	if s.Count != 8000 {
		t.Errorf("Count = %d, want 8000", s.Count)
	}
	if math.Abs(s.Sum-8.0) > 1e-9 {
		t.Errorf("Sum = %g, want 8 (CAS accumulation lost updates)", s.Sum)
	}
}

func TestHistogramDefaultBoundsRenderClean(t *testing.T) {
	for _, b := range DefaultLatencyBounds() {
		le := formatLE(b)
		if len(le) > 7 || strings.Contains(le, "00000") {
			t.Errorf("bound %v renders as %q — float artifact in le label", b, le)
		}
	}
	if n := len(DefaultLatencyBounds()); n != 26 {
		t.Errorf("default bounds = %d edges, want 26", n)
	}
}

func TestHistogramObserveDurationAndReset(t *testing.T) {
	h := newHistogram(DefaultLatencyBounds())
	h.ObserveDuration(3 * time.Millisecond)
	if s := h.Stats(); s.Count != 1 || s.Sum != 0.003 {
		t.Errorf("stats = %+v", s)
	}
	h.reset()
	if s := h.Stats(); s.Count != 0 || s.Sum != 0 {
		t.Errorf("reset left %+v", s)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {2, 1},
		"duplicate":  {1, 1},
		"nan":        {math.NaN()},
		"inf":        {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

func TestRegistryHistogramBounds(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBounds("h", []float64{1, 2})
	if r.Histogram("h") != h {
		t.Error("Histogram lookup after HistogramBounds returned a different instance")
	}
	if got := r.HistogramBounds("h", []float64{5}); got != h {
		t.Error("re-registering kept different bounds instance")
	}
	// Default bounds when nil.
	d := r.Histogram("lat")
	d.Observe(0.5)
	if len(d.Stats().Buckets) != len(DefaultLatencyBounds())+1 {
		t.Error("default-bounds histogram has wrong bucket count")
	}
}
