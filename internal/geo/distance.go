package geo

import (
	"math"
	"reflect"
	"sync"
)

// DistanceFunc measures the travel distance between two locations. The paper
// uses Euclidean distance but notes the approaches work with any metric
// (e.g. road-network distance); every component of this library that needs a
// distance takes a DistanceFunc so alternatives plug in without code changes.
type DistanceFunc func(a, b Point) float64

// Euclidean is the straight-line distance, the paper's default metric.
func Euclidean(a, b Point) float64 { return a.DistanceTo(b) }

// Manhattan is the L1 (taxicab) distance, a cheap stand-in for grid-like road
// networks.
func Manhattan(a, b Point) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}

// Chebyshev is the L∞ distance.
func Chebyshev(a, b Point) float64 {
	return math.Max(math.Abs(a.X-b.X), math.Abs(a.Y-b.Y))
}

// earthRadiusKm is the mean Earth radius used by Haversine.
const earthRadiusKm = 6371.0088

// boundScales holds caller-registered Euclidean lower-bound factors beyond
// the built-in metrics, keyed by code pointer.
var (
	boundMu     sync.RWMutex
	boundScales map[uintptr]float64
)

// RegisterEuclideanBound declares that Euclidean(a, b) ≤ scale·f(a, b)
// holds for every point pair, extending EuclideanBoundScale's recognition
// to caller-provided metrics — e.g. a road network whose edge weights
// dominate the straight-line length registers scale 1, and its users get
// spatial-grid pruning instead of exhaustive filtering. Nil functions and
// non-positive or non-finite scales are ignored.
//
// Identity is the function's code pointer, the same best-effort identity
// EuclideanBoundScale uses: every closure or method value sharing that
// code shares the registration. Register only bounds that hold for every
// instance behind the code pointer (roadnet hands out a distinct
// unregistered method for networks whose weights undercut the straight
// line, keeping the shared registration sound).
func RegisterEuclideanBound(f DistanceFunc, scale float64) {
	if f == nil || math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
		return
	}
	p := reflect.ValueOf(f).Pointer()
	boundMu.Lock()
	if boundScales == nil {
		boundScales = make(map[uintptr]float64)
	}
	boundScales[p] = scale
	boundMu.Unlock()
}

// EuclideanBoundScale reports a factor c such that Euclidean(a, b) ≤ c·f(a, b)
// for all point pairs, enabling spatial indexes (which answer Euclidean radius
// queries) to prune candidates for the metric f: any pair within metric
// distance r lies inside the Euclidean disc of radius c·r. The factor is
// recognised for the package's own metrics — Euclidean and Manhattan dominate
// the straight line (c = 1), Chebyshev underestimates it by at most √2 — and
// for metrics registered via RegisterEuclideanBound (e.g. road networks
// whose edge weights dominate the straight line). ok is false for anything
// else (Haversine, unregistered user closures), signalling the caller to
// skip spatial pruning and filter exhaustively.
func EuclideanBoundScale(f DistanceFunc) (scale float64, ok bool) {
	if f == nil {
		return 1, true
	}
	p := reflect.ValueOf(f).Pointer()
	switch p {
	case reflect.ValueOf(Euclidean).Pointer():
		return 1, true
	case reflect.ValueOf(Manhattan).Pointer():
		return 1, true
	case reflect.ValueOf(Chebyshev).Pointer():
		return math.Sqrt2, true
	}
	boundMu.RLock()
	s, ok := boundScales[p]
	boundMu.RUnlock()
	if ok {
		return s, true
	}
	return 0, false
}

// Haversine treats points as (longitude, latitude) in degrees and returns the
// great-circle distance in kilometres. Useful when the Meetup-substitute
// workload should be interpreted geographically rather than in raw degrees.
func Haversine(a, b Point) float64 {
	lat1 := a.Y * math.Pi / 180
	lat2 := b.Y * math.Pi / 180
	dLat := (b.Y - a.Y) * math.Pi / 180
	dLon := (b.X - a.X) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(s)))
}
