package geo

import (
	"math"
	"testing"
)

// doubled and halved are package-level metrics with dedicated code pointers,
// so the registry tests cannot collide with each other (or with roadnet's
// process-wide registration) through a shared closure site.
func doubled(a, b Point) float64 { return 2 * Euclidean(a, b) }
func halved(a, b Point) float64  { return 0.5 * Euclidean(a, b) }

func TestRegisterEuclideanBound(t *testing.T) {
	if _, ok := EuclideanBoundScale(doubled); ok {
		t.Fatal("unregistered metric recognised")
	}
	// Euclidean ≤ 0.5·doubled, so scale 0.5 is the (tight) valid bound.
	RegisterEuclideanBound(doubled, 0.5)
	if s, ok := EuclideanBoundScale(doubled); !ok || s != 0.5 {
		t.Fatalf("registered metric: scale=%v ok=%v, want 0.5 true", s, ok)
	}
	// Invalid registrations are ignored, not recorded.
	RegisterEuclideanBound(nil, 1)
	RegisterEuclideanBound(halved, 0)
	RegisterEuclideanBound(halved, -2)
	RegisterEuclideanBound(halved, math.NaN())
	RegisterEuclideanBound(halved, math.Inf(1))
	if _, ok := EuclideanBoundScale(halved); ok {
		t.Fatal("invalid registrations must not be recorded")
	}
	// Built-in recognition is unaffected by registry activity.
	if s, ok := EuclideanBoundScale(Euclidean); !ok || s != 1 {
		t.Fatalf("Euclidean: scale=%v ok=%v", s, ok)
	}
	if s, ok := EuclideanBoundScale(Chebyshev); !ok || s != math.Sqrt2 {
		t.Fatalf("Chebyshev: scale=%v ok=%v", s, ok)
	}
	if _, ok := EuclideanBoundScale(Haversine); ok {
		t.Fatal("Haversine must stay unrecognised")
	}
}
