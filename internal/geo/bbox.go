package geo

import "fmt"

// BBox is an axis-aligned bounding box, closed on all sides.
type BBox struct {
	Min, Max Point
}

// NewBBox returns the bounding box spanning the two corner points, fixing the
// corner order so Min ≤ Max component-wise.
func NewBBox(a, b Point) BBox {
	box := BBox{Min: a, Max: b}
	if box.Min.X > box.Max.X {
		box.Min.X, box.Max.X = box.Max.X, box.Min.X
	}
	if box.Min.Y > box.Max.Y {
		box.Min.Y, box.Max.Y = box.Max.Y, box.Min.Y
	}
	return box
}

// UnitHalf is the paper's synthetic data space [0, 0.5]^2.
var UnitHalf = BBox{Min: Point{0, 0}, Max: Point{0.5, 0.5}}

// HongKong is the paper's real-data extract region:
// longitude 113.843°–114.283°, latitude 22.209°–22.609°.
var HongKong = BBox{Min: Point{113.843, 22.209}, Max: Point{114.283, 22.609}}

// Contains reports whether p lies inside the box (boundary inclusive).
func (b BBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Width returns the extent of the box along X.
func (b BBox) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the extent of the box along Y.
func (b BBox) Height() float64 { return b.Max.Y - b.Min.Y }

// Diagonal returns the Euclidean length of the box diagonal, an upper bound
// on the distance between any two contained points.
func (b BBox) Diagonal() float64 { return b.Min.DistanceTo(b.Max) }

// Expand returns the box grown by margin on every side.
func (b BBox) Expand(margin float64) BBox {
	return BBox{
		Min: Point{b.Min.X - margin, b.Min.Y - margin},
		Max: Point{b.Max.X + margin, b.Max.Y + margin},
	}
}

// String implements fmt.Stringer.
func (b BBox) String() string { return fmt.Sprintf("[%v %v]", b.Min, b.Max) }
