package geo

import (
	"math/rand"
	"testing"
)

// Each spatial index is benchmarked on the query the system runs on it: the
// grid's radius query (the batch candidate engine) and the k-d tree's
// nearest-point query and build (road-network snapping).

func benchUniform(n int) ([]KDItem, []Point) {
	rng := rand.New(rand.NewSource(42))
	items := make([]KDItem, n)
	for i := range items {
		items[i] = KDItem{ID: i, Pt: Pt(rng.Float64(), rng.Float64())}
	}
	queries := make([]Point, 256)
	for i := range queries {
		queries[i] = Pt(rng.Float64(), rng.Float64())
	}
	return items, queries
}

func BenchmarkGridWithin(b *testing.B) {
	items, queries := benchUniform(10000)
	pts := make([]Point, len(items))
	for i, it := range items {
		pts[i] = it.Pt
	}
	g := NewGridIndex(NewBBox(Pt(0, 0), Pt(1, 1)), len(pts), pts)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(queries[i%len(queries)], 0.05, buf[:0])
	}
}

func BenchmarkKDTreeNearest(b *testing.B) {
	items, queries := benchUniform(10000)
	t := NewKDTree(items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Nearest(queries[i%len(queries)])
	}
}

func BenchmarkKDTreeBuild(b *testing.B) {
	items, _ := benchUniform(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewKDTree(items)
	}
}
