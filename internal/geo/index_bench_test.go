package geo

import (
	"math/rand"
	"testing"
)

// The two spatial indexes answer the same radius and nearest-point queries;
// these benchmarks make the trade-off measurable: the grid wins on uniform
// data with known bounds, the k-d tree on point queries and clustered data.

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
	g := NewGridIndex(NewBBox(Pt(0, 0), Pt(1, 1)), len(items))
	for _, it := range items {
		g.Insert(it.ID, it.Pt)
	}
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(queries[i%len(queries)], 0.05, buf[:0])
	}
}

func BenchmarkKDTreeWithin(b *testing.B) {
	items, queries := benchUniform(10000)
	t := NewKDTree(items)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = t.Within(queries[i%len(queries)], 0.05, buf[:0])
	}
}

func BenchmarkGridNearest(b *testing.B) {
	items, queries := benchUniform(10000)
	g := NewGridIndex(NewBBox(Pt(0, 0), Pt(1, 1)), len(items))
	for _, it := range items {
		g.Insert(it.ID, it.Pt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Nearest(queries[i%len(queries)])
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
