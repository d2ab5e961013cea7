package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDistance(t *testing.T) {
	tests := []struct {
		a, b Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tc := range tests {
		if got := tc.a.DistanceTo(tc.b); !almostEq(got, tc.want) {
			t.Errorf("DistanceTo(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.a.SqDistanceTo(tc.b); !almostEq(got, tc.want*tc.want) {
			t.Errorf("SqDistanceTo(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want*tc.want)
		}
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by int32) bool {
		a := Pt(float64(ax)/1e4, float64(ay)/1e4)
		b := Pt(float64(bx)/1e4, float64(by)/1e4)
		return almostEq(a.DistanceTo(b), b.DistanceTo(a)) &&
			a.DistanceTo(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.DistanceTo(c) <= a.DistanceTo(b)+b.DistanceTo(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetrics(t *testing.T) {
	a, b := Pt(0, 0), Pt(3, 4)
	if got := Euclidean(a, b); !almostEq(got, 5) {
		t.Errorf("Euclidean = %v", got)
	}
	if got := Manhattan(a, b); !almostEq(got, 7) {
		t.Errorf("Manhattan = %v", got)
	}
	if got := Chebyshev(a, b); !almostEq(got, 4) {
		t.Errorf("Chebyshev = %v", got)
	}
}

func TestHaversine(t *testing.T) {
	// One degree of latitude is ~111.2 km everywhere.
	d := Haversine(Pt(114, 22), Pt(114, 23))
	if d < 110 || d > 112.5 {
		t.Errorf("1° latitude = %v km, want ≈111.2", d)
	}
	if got := Haversine(Pt(114, 22), Pt(114, 22)); !almostEq(got, 0) {
		t.Errorf("zero distance = %v", got)
	}
	// Symmetry.
	if a, b := Haversine(Pt(113.9, 22.3), Pt(114.2, 22.5)), Haversine(Pt(114.2, 22.5), Pt(113.9, 22.3)); !almostEq(a, b) {
		t.Errorf("asymmetric haversine: %v vs %v", a, b)
	}
}
