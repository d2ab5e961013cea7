package matching

import (
	"math/rand"
	"testing"
)

func benchCost(n, m int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 100
		}
	}
	return cost
}

func BenchmarkHungarian32(b *testing.B) {
	cost := benchCost(32, 48, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Hungarian(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHungarian128(b *testing.B) {
	cost := benchCost(128, 160, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Hungarian(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHKSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := NewBipartite(200, 200)
	for u := 0; u < 200; u++ {
		for k := 0; k < 6; k++ {
			g.AddEdge(u, rng.Intn(200))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MaxMatchingHK()
	}
}
