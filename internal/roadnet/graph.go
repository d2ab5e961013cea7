// Package roadnet provides a road-network distance substrate. The paper
// notes its approaches "can also be used with other distance functions
// (e.g., road-network distance)"; this package makes that concrete: a
// weighted road graph with Dijkstra shortest paths, point snapping, and a
// geo.DistanceFunc adapter with per-source caching so allocators can use
// network distances as a drop-in replacement for Euclidean.
package roadnet

import (
	"fmt"
	"math"

	"dasc/internal/geo"
)

// NodeID identifies a road-network vertex.
type NodeID int32

// Graph is an undirected weighted road network. Edge weights are travel
// distances; they default to the Euclidean length of the edge but may model
// slower roads with larger weights.
type Graph struct {
	pts    []geo.Point
	adj    [][]halfEdge
	nEdges int
}

type halfEdge struct {
	to NodeID
	w  float64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode appends a vertex at p and returns its ID.
func (g *Graph) AddNode(p geo.Point) NodeID {
	g.pts = append(g.pts, p)
	g.adj = append(g.adj, nil)
	return NodeID(len(g.pts) - 1)
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.nEdges }

// Node returns the location of vertex id.
func (g *Graph) Node(id NodeID) geo.Point { return g.pts[id] }

// AddEdge connects u and v with the given weight; a non-positive weight
// means "use the Euclidean length". Self-loops and out-of-range vertices are
// errors.
func (g *Graph) AddEdge(u, v NodeID, weight float64) error {
	if u == v {
		return fmt.Errorf("roadnet: self-loop on node %d", u)
	}
	if int(u) >= len(g.pts) || int(v) >= len(g.pts) || u < 0 || v < 0 {
		return fmt.Errorf("roadnet: edge %d–%d out of range", u, v)
	}
	if weight <= 0 {
		weight = g.pts[u].DistanceTo(g.pts[v])
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: weight})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, w: weight})
	g.nEdges++
	return nil
}

// ShortestDistances runs Dijkstra from src and returns the distance to every
// vertex (+Inf where unreachable).
func (g *Graph) ShortestDistances(src NodeID) []float64 {
	dist := make([]float64, len(g.pts))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &nodeHeap{}
	h.push(nodeCand{id: src, d: 0})
	for h.len() > 0 {
		c := h.pop()
		if c.d > dist[c.id] {
			continue // stale entry
		}
		for _, e := range g.adj[c.id] {
			if nd := c.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				h.push(nodeCand{id: e.to, d: nd})
			}
		}
	}
	return dist
}

// Connected reports whether every vertex is reachable from vertex 0.
func (g *Graph) Connected() bool {
	if len(g.pts) == 0 {
		return true
	}
	d := g.ShortestDistances(0)
	for _, v := range d {
		if math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// nodeHeap is a min-heap on distance.
type nodeCand struct {
	id NodeID
	d  float64
}

type nodeHeap struct{ a []nodeCand }

func (h *nodeHeap) len() int { return len(h.a) }

func (h *nodeHeap) push(c nodeCand) {
	h.a = append(h.a, c)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].d <= h.a[i].d {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *nodeHeap) pop() nodeCand {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l].d < h.a[small].d {
			small = l
		}
		if r < last && h.a[r].d < h.a[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
