package geo

import "math"

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
