// Package matching implements the bipartite matching algorithms the DA-SC
// allocators rely on: Hopcroft–Karp for maximum-cardinality matching
// (feasibility of an associative task set), and the Hungarian algorithm
// (Kuhn–Munkres) for minimum-cost assignment, which Algorithm 1 of the paper
// invokes to pick the worker set for a task set.
package matching

// Bipartite is an adjacency-list bipartite graph with len(Adj) left vertices
// and N right vertices. Adj[u] lists the right vertices u may be matched to.
type Bipartite struct {
	Adj [][]int
	N   int // number of right vertices
}

// NewBipartite returns an empty graph with left left-vertices and right
// right-vertices.
func NewBipartite(left, right int) *Bipartite {
	return &Bipartite{Adj: make([][]int, left), N: right}
}

// AddEdge connects left vertex u to right vertex v. Out-of-range vertices
// panic, as they indicate a caller bug.
func (b *Bipartite) AddEdge(u, v int) {
	if u < 0 || u >= len(b.Adj) || v < 0 || v >= b.N {
		panic("matching: edge out of range")
	}
	b.Adj[u] = append(b.Adj[u], v)
}

// MaxMatchingHK computes a maximum matching with Hopcroft–Karp in
// O(E·√V). It returns matchL where matchL[u] is the right vertex matched to
// left vertex u, or -1, and the matching's size.
func (b *Bipartite) MaxMatchingHK() (matchL []int, size int) {
	const inf = int32(1) << 30
	nL := len(b.Adj)
	matchL = make([]int, nL)
	matchR := make([]int, b.N)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	dist := make([]int32, nL)
	queue := make([]int, 0, nL)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < nL; u++ {
			if matchL[u] == -1 {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range b.Adj[u] {
				w := matchR[v]
				if w == -1 {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u int) bool
	dfs = func(u int) bool {
		for _, v := range b.Adj[u] {
			w := matchR[v]
			if w == -1 || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		for u := 0; u < nL; u++ {
			if matchL[u] == -1 && dfs(u) {
				size++
			}
		}
	}
	return matchL, size
}
