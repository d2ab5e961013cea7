// Package geo provides the spatial primitives used by the DA-SC platform:
// points, distance functions, bounding boxes, and two spatial indexes (a
// uniform grid and a k-d tree) for radius and nearest-neighbour queries.
//
// Coordinates are unit-less float64 pairs. For the synthetic workloads they
// live in [0, 0.5]^2 as in the paper; for the Meetup-substitute workload they
// are (longitude, latitude) degrees inside the Hong Kong bounding box.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane. X and Y are unit-less coordinates
// (or longitude/latitude degrees for geographic workloads).
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns the component-wise sum p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the component-wise difference p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p with both components multiplied by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// DistanceTo returns the Euclidean distance from p to q.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// SqDistanceTo returns the squared Euclidean distance from p to q. It avoids
// the square root and is the preferred comparison key inside indexes.
func (p Point) SqDistanceTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y) }
