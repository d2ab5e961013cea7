package geo

import (
	"math"
	"math/rand"
	"testing"
)

// randPoints returns n deterministic pseudo-random points inside box.
func randPoints(rng *rand.Rand, n int, box BBox) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: box.Min.X + rng.Float64()*box.Width(),
			Y: box.Min.Y + rng.Float64()*box.Height(),
		}
	}
	return pts
}

func TestKDTreeNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := NewBBox(Pt(-1, -1), Pt(1, 1))
	pts := randPoints(rng, 257, box)
	items := make([]KDItem, len(pts))
	for i, p := range pts {
		items[i] = KDItem{ID: i, Pt: p}
	}
	tree := NewKDTree(items)
	if tree.Len() != len(pts) {
		t.Fatalf("Len = %d", tree.Len())
	}
	for trial := 0; trial < 100; trial++ {
		q := Point{rng.Float64()*3 - 1.5, rng.Float64()*3 - 1.5}
		_, d, ok := tree.Nearest(q)
		if !ok {
			t.Fatal("Nearest !ok")
		}
		bestD := -1.0
		for _, p := range pts {
			if dd := p.DistanceTo(q); bestD < 0 || dd < bestD {
				bestD = dd
			}
		}
		if !almostEq(d, bestD) {
			t.Fatalf("trial %d: kd nearest %v, brute %v", trial, d, bestD)
		}
	}
}

func TestKDTreeEmptyAndDegenerate(t *testing.T) {
	empty := NewKDTree(nil)
	if _, _, ok := empty.Nearest(Pt(0, 0)); ok {
		t.Error("empty tree Nearest should be !ok")
	}
	one := NewKDTree([]KDItem{{ID: 42, Pt: Pt(1, 1)}})
	id, d, ok := one.Nearest(Pt(0, 0))
	if !ok || id != 42 || !almostEq(d, math.Sqrt2) {
		t.Errorf("single-point tree: id=%d d=%v ok=%v", id, d, ok)
	}
	// All points identical: still well-formed.
	same := make([]KDItem, 10)
	for i := range same {
		same[i] = KDItem{ID: i, Pt: Pt(0.3, 0.3)}
	}
	dup := NewKDTree(same)
	if id, d, ok := dup.Nearest(Pt(0.3, 0.3)); !ok || id != 0 || d != 0 {
		t.Errorf("duplicate-point tree: id=%d d=%v ok=%v, want the lowest id at 0", id, d, ok)
	}
}
