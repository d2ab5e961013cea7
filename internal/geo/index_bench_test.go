package geo

import (
	"math/rand"
	"testing"
)

// The k-d tree is benchmarked on what the system runs on it: its
// nearest-point query and its build (road-network snapping).

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
