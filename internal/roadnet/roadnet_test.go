package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"dasc/internal/geo"
)

// square builds a 4-cycle: 0-(1)-1-(1)-2-(1)-3-(1)-0 with unit edges at the
// corners of a unit square.
func square(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	g.AddNode(geo.Pt(0, 0))
	g.AddNode(geo.Pt(1, 0))
	g.AddNode(geo.Pt(1, 1))
	g.AddNode(geo.Pt(0, 1))
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddEdge(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := square(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("graph %d/%d", g.NumNodes(), g.NumEdges())
	}
	if len(g.adj[0]) != 2 {
		t.Errorf("degree of node 0 = %d", len(g.adj[0]))
	}
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 99, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestShortestPathSquare(t *testing.T) {
	g := square(t)
	if d := g.ShortestDistances(0); d[2] != 2 || d[1] != 1 || d[3] != 1 {
		t.Errorf("distances from 0 = %v, want [0 1 2 1]", d)
	}
	// A cheap diagonal shortcut must win.
	if err := g.AddEdge(0, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if d := g.ShortestDistances(0); d[2] != 0.5 {
		t.Errorf("with shortcut: d(0→2) = %v, want 0.5", d[2])
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph()
	g.AddNode(geo.Pt(0, 0))
	g.AddNode(geo.Pt(1, 1))
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	d := g.ShortestDistances(0)
	if !math.IsInf(d[1], 1) || d[0] != 0 {
		t.Errorf("distances = %v", d)
	}
}

func TestShortestDistancesMatchBruteForce(t *testing.T) {
	// Random connected graph; cross-check Dijkstra against Bellman–Ford.
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(15)
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.AddNode(geo.Pt(rng.Float64(), rng.Float64()))
		}
		type edge struct {
			u, v NodeID
			w    float64
		}
		var edges []edge
		for i := 1; i < n; i++ { // spanning chain keeps it connected
			e := edge{NodeID(i - 1), NodeID(i), rng.Float64() + 0.1}
			edges = append(edges, e)
		}
		for k := 0; k < n; k++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				edges = append(edges, edge{u, v, rng.Float64() + 0.1})
			}
		}
		for _, e := range edges {
			if err := g.AddEdge(e.u, e.v, e.w); err != nil {
				t.Fatal(err)
			}
		}
		src := NodeID(rng.Intn(n))
		got := g.ShortestDistances(src)
		// Bellman–Ford oracle.
		want := make([]float64, n)
		for i := range want {
			want[i] = math.Inf(1)
		}
		want[src] = 0
		for iter := 0; iter < n; iter++ {
			for _, e := range edges {
				if want[e.u]+e.w < want[e.v] {
					want[e.v] = want[e.u] + e.w
				}
				if want[e.v]+e.w < want[e.u] {
					want[e.u] = want[e.v] + e.w
				}
			}
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: dist[%d] = %v, bellman-ford %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestNetworkSnapAndDistance(t *testing.T) {
	net, err := NewNetwork(square(t))
	if err != nil {
		t.Fatal(err)
	}
	id, d := net.Snap(geo.Pt(0.1, 0.1))
	if id != 0 || d > 0.2 {
		t.Errorf("Snap = %d, %v", id, d)
	}
	// Distance from near-corner-0 to near-corner-2: walk + two edges + walk.
	got := net.Distance(geo.Pt(0, 0), geo.Pt(1, 1))
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("network distance = %v, want 2", got)
	}
	// Same snap vertex: direct walking wins.
	got = net.Distance(geo.Pt(0.05, 0), geo.Pt(0, 0.05))
	if want := geo.Pt(0.05, 0).DistanceTo(geo.Pt(0, 0.05)); math.Abs(got-want) > 1e-9 {
		t.Errorf("same-vertex distance = %v, want %v", got, want)
	}
	// Caching: repeated queries agree.
	a, b := geo.Pt(0.1, 0.2), geo.Pt(0.9, 0.8)
	if d1, d2 := net.Distance(a, b), net.Distance(a, b); d1 != d2 {
		t.Errorf("cache inconsistency: %v vs %v", d1, d2)
	}
}

func TestNetworkDistanceDominatesEuclidean(t *testing.T) {
	net, err := GenerateGrid(DefaultGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(1, 1))))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 200; trial++ {
		a := geo.Pt(rng.Float64(), rng.Float64())
		b := geo.Pt(rng.Float64(), rng.Float64())
		road := net.Distance(a, b)
		if road+1e-9 < a.DistanceTo(b)*0.999 {
			t.Fatalf("road distance %v below Euclidean %v", road, a.DistanceTo(b))
		}
		// Symmetry.
		if back := net.Distance(b, a); math.Abs(road-back) > 1e-9 {
			t.Fatalf("asymmetric network distance: %v vs %v", road, back)
		}
	}
}

func TestGenerateGridConnectedAndDeterministic(t *testing.T) {
	c := DefaultGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(1, 1)))
	c.RemoveFrac = 0.3
	n1, err := GenerateGrid(c)
	if err != nil {
		t.Fatal(err)
	}
	if !n1.Graph().Connected() {
		t.Fatal("generated network disconnected")
	}
	n2, err := GenerateGrid(c)
	if err != nil {
		t.Fatal(err)
	}
	if n1.Graph().NumEdges() != n2.Graph().NumEdges() {
		t.Error("same seed, different networks")
	}
	if n1.Graph().NumNodes() != c.Cols*c.Rows {
		t.Errorf("nodes = %d", n1.Graph().NumNodes())
	}
}

func TestGenerateGridValidation(t *testing.T) {
	c := DefaultGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(1, 1)))
	c.Cols = 1
	if _, err := GenerateGrid(c); err == nil {
		t.Error("1-column grid accepted")
	}
	c = DefaultGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(1, 1)))
	c.Jitter = 0.9
	if _, err := GenerateGrid(c); err == nil {
		t.Error("excess jitter accepted")
	}
	if _, err := NewNetwork(NewGraph()); err == nil {
		t.Error("empty network accepted")
	}
}
