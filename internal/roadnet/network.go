package roadnet

import (
	"fmt"
	"math/rand"
	"sync"

	"dasc/internal/geo"
)

// Network wraps a road Graph with a spatial index for snapping arbitrary
// locations to their nearest road vertex, and exposes the whole thing as a
// geo.DistanceFunc usable anywhere the library takes a metric.
type Network struct {
	g    *Graph
	tree *geo.KDTree

	mu    sync.Mutex
	cache map[NodeID][]float64 // memoised single-source distances
}

// NewNetwork indexes an existing graph. The graph must not be mutated
// afterwards.
func NewNetwork(g *Graph) (*Network, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("roadnet: empty graph")
	}
	items := make([]geo.KDItem, g.NumNodes())
	for i := range items {
		items[i] = geo.KDItem{ID: i, Pt: g.Node(NodeID(i))}
	}
	return &Network{
		g:     g,
		tree:  geo.NewKDTree(items),
		cache: make(map[NodeID][]float64),
	}, nil
}

// Graph returns the underlying road graph.
func (n *Network) Graph() *Graph { return n.g }

// Snap returns the road vertex nearest to p and the straight-line distance
// to it.
func (n *Network) Snap(p geo.Point) (NodeID, float64) {
	id, d, _ := n.tree.Nearest(p) // tree is never empty
	return NodeID(id), d
}

// distancesFrom returns (and memoises) the single-source shortest distances
// from a road vertex. Safe for concurrent use.
func (n *Network) distancesFrom(src NodeID) []float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d, ok := n.cache[src]; ok {
		return d
	}
	d := n.g.ShortestDistances(src)
	n.cache[src] = d
	return d
}

// Distance returns the road-network travel distance between two arbitrary
// locations: straight-line walk to the nearest vertex, shortest path through
// the network, straight-line walk from the nearest vertex to the target.
// Unreachable pairs return +Inf (so feasibility checks reject them).
func (n *Network) Distance(a, b geo.Point) float64 {
	sa, da := n.Snap(a)
	sb, db := n.Snap(b)
	if sa == sb {
		// Same access vertex: walking directly is never worse than the
		// detour through it.
		direct := a.DistanceTo(b)
		viaNode := da + db
		if direct < viaNode {
			return direct
		}
		return viaNode
	}
	return da + n.distancesFrom(sa)[sb] + db
}

// DistanceFunc adapts the network to the library-wide metric type.
func (n *Network) DistanceFunc() geo.DistanceFunc { return n.Distance }

// GridNetworkConfig parameterises the synthetic road-network generator.
type GridNetworkConfig struct {
	Box  geo.BBox
	Cols int
	Rows int
	// Jitter displaces each vertex by up to this fraction of a cell in each
	// axis, so the network is not a perfect lattice. 0–0.49.
	Jitter float64
	// RemoveFrac removes this fraction of non-bridging edges, creating
	// detours. 0–0.4.
	RemoveFrac float64
	// DiagonalFrac adds diagonal shortcut edges to this fraction of cells.
	DiagonalFrac float64
	Seed         int64
}

// DefaultGrid returns a reasonable city-like network over the box.
func DefaultGrid(box geo.BBox) GridNetworkConfig {
	return GridNetworkConfig{
		Box: box, Cols: 16, Rows: 16,
		Jitter: 0.25, RemoveFrac: 0.15, DiagonalFrac: 0.1, Seed: 1,
	}
}

// GenerateGrid builds a connected jittered-grid road network. Removing an
// edge is skipped when it would disconnect the graph, so the result is
// always connected.
func GenerateGrid(c GridNetworkConfig) (*Network, error) {
	if c.Cols < 2 || c.Rows < 2 {
		return nil, fmt.Errorf("roadnet: grid needs at least 2x2 vertices, got %dx%d", c.Cols, c.Rows)
	}
	if c.Jitter < 0 || c.Jitter > 0.49 {
		return nil, fmt.Errorf("roadnet: jitter %v outside [0, 0.49]", c.Jitter)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	g := NewGraph()
	cw := c.Box.Width() / float64(c.Cols-1)
	ch := c.Box.Height() / float64(c.Rows-1)
	id := func(col, row int) NodeID { return NodeID(row*c.Cols + col) }
	for row := 0; row < c.Rows; row++ {
		for col := 0; col < c.Cols; col++ {
			jx := (rng.Float64()*2 - 1) * c.Jitter * cw
			jy := (rng.Float64()*2 - 1) * c.Jitter * ch
			g.AddNode(geo.Pt(
				c.Box.Min.X+float64(col)*cw+jx,
				c.Box.Min.Y+float64(row)*ch+jy,
			))
		}
	}
	type edge struct{ u, v NodeID }
	var edges []edge
	for row := 0; row < c.Rows; row++ {
		for col := 0; col < c.Cols; col++ {
			if col+1 < c.Cols {
				edges = append(edges, edge{id(col, row), id(col+1, row)})
			}
			if row+1 < c.Rows {
				edges = append(edges, edge{id(col, row), id(col, row+1)})
			}
			if col+1 < c.Cols && row+1 < c.Rows && rng.Float64() < c.DiagonalFrac {
				edges = append(edges, edge{id(col, row), id(col+1, row+1)})
			}
		}
	}
	for _, e := range edges {
		if err := g.AddEdge(e.u, e.v, 0); err != nil {
			return nil, err
		}
	}
	// Remove a fraction of edges, but never disconnect. Rebuilding the graph
	// per removal is O(edges²) in the worst case, fine at generator sizes.
	removals := int(float64(len(edges)) * c.RemoveFrac)
	perm := rng.Perm(len(edges))
	removed := make(map[int]bool)
	for _, ei := range perm {
		if removals == 0 {
			break
		}
		removed[ei] = true
		trial := NewGraph()
		for i := 0; i < g.NumNodes(); i++ {
			trial.AddNode(g.Node(NodeID(i)))
		}
		for i, e := range edges {
			if !removed[i] {
				if err := trial.AddEdge(e.u, e.v, 0); err != nil {
					return nil, err
				}
			}
		}
		if trial.Connected() {
			removals--
		} else {
			delete(removed, ei)
		}
	}
	final := NewGraph()
	for i := 0; i < g.NumNodes(); i++ {
		final.AddNode(g.Node(NodeID(i)))
	}
	for i, e := range edges {
		if !removed[i] {
			if err := final.AddEdge(e.u, e.v, 0); err != nil {
				return nil, err
			}
		}
	}
	return NewNetwork(final)
}
