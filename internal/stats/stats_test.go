package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMeanMedianStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median(xs); got != 4.5 {
		t.Errorf("Median = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) || !math.IsNaN(Percentile(nil, 90)) {
		t.Error("empty inputs should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {200, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be reordered.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []int16, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		got := Percentile(xs, float64(p%101))
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimer(t *testing.T) {
	tm := StartTimer()
	if ms := tm.ElapsedMS(); ms < 0 {
		t.Errorf("ElapsedMS = %v", ms)
	}
}
