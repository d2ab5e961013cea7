package geo

import (
	"math"
	"math/rand"
	"sort"
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

// bruteWithin is the oracle for radius queries.
func bruteWithin(pts []Point, q Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if p.DistanceTo(q) <= r {
			out = append(out, i)
		}
	}
	return out
}

func sortedCopy(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	return c
}

func equalIntSets(a, b []int) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridIndexWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// The unit square, then two boxes flat in one axis (collinear points):
	// a flat box must still get about targetCells cells, not one sized by
	// a tiny floor on its zero side.
	for _, box := range []BBox{
		NewBBox(Pt(0, 0), Pt(1, 1)),
		NewBBox(Pt(0.5, 0), Pt(0.5, 100)),
		NewBBox(Pt(0, 3), Pt(100, 3)),
	} {
		pts := randPoints(rng, 300, box)
		g := NewGridIndex(box, len(pts))
		if cells := g.cols * g.rows; cells > 2*len(pts) {
			t.Fatalf("box %v: %d×%d cells for targetCells %d", box, g.cols, g.rows, len(pts))
		}
		for i, p := range pts {
			g.Insert(i, p)
		}
		side := max(box.Width(), box.Height())
		for trial := 0; trial < 50; trial++ {
			q := Point{box.Min.X + rng.Float64()*box.Width(), box.Min.Y + rng.Float64()*box.Height()}
			r := rng.Float64() * 0.4 * side
			got := g.Within(q, r, nil)
			want := bruteWithin(pts, q, r)
			if !equalIntSets(got, want) {
				t.Fatalf("box %v trial %d: Within(%v, %v) = %v, want %v", box, trial, q, r, got, want)
			}
		}
	}
}

func TestGridIndexEmpty(t *testing.T) {
	g := NewGridIndex(NewBBox(Pt(0, 0), Pt(1, 1)), 8)
	if got := g.Within(Pt(0.5, 0.5), 10, nil); len(got) != 0 {
		t.Errorf("Within on empty index = %v", got)
	}
}

func TestGridIndexClampedOutsidePoints(t *testing.T) {
	// Points outside the declared box must still be stored and findable.
	g := NewGridIndex(NewBBox(Pt(0, 0), Pt(1, 1)), 16)
	g.Insert(0, Pt(5, 5))
	got := g.Within(Pt(5, 5), 0.1, nil)
	if !equalIntSets(got, []int{0}) {
		t.Errorf("outside point not found: %v", got)
	}
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
