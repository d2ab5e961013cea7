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
	return new(Workspace).MaxMatchingHK(b)
}

// Workspace holds the working arrays of MaxMatchingHK and Hungarian so that
// repeated solves reuse them instead of allocating per call. What a solve
// returns lives in the workspace and stays valid only until its next solve.
// A workspace serves one solve at a time.
type Workspace struct {
	matchL, matchR []int
	dist           []int32
	queue          []int
	adj            [][]int

	u, v, minv []float64
	p, way     []int
	used       []bool
	assign     []int
}

// grown returns s resliced to n, at least doubling its capacity when it is
// short; the contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// hkInf is the BFS distance of a left vertex not on the current layering.
const hkInf = int32(1) << 30

// MaxMatchingHK is Bipartite.MaxMatchingHK on the workspace's arrays; the
// returned matchL is the workspace's.
func (ws *Workspace) MaxMatchingHK(b *Bipartite) (matchL []int, size int) {
	nL := len(b.Adj)
	ws.adj = b.Adj
	ws.matchL = grown(ws.matchL, nL)
	ws.matchR = grown(ws.matchR, b.N)
	for i := range ws.matchL {
		ws.matchL[i] = -1
	}
	for i := range ws.matchR {
		ws.matchR[i] = -1
	}
	ws.dist = grown(ws.dist, nL)
	for ws.hkLayer() {
		for u := 0; u < nL; u++ {
			if ws.matchL[u] == -1 && ws.hkAugment(u) {
				size++
			}
		}
	}
	ws.adj = nil
	return ws.matchL, size
}

// hkLayer is Hopcroft–Karp's BFS phase: it layers the left vertices from
// the free ones and reports whether an augmenting path exists.
func (ws *Workspace) hkLayer() bool {
	queue := ws.queue[:0]
	for u := range ws.matchL {
		if ws.matchL[u] == -1 {
			ws.dist[u] = 0
			queue = append(queue, u)
		} else {
			ws.dist[u] = hkInf
		}
	}
	found := false
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range ws.adj[u] {
			w := ws.matchR[v]
			if w == -1 {
				found = true
			} else if ws.dist[w] == hkInf {
				ws.dist[w] = ws.dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	ws.queue = queue
	return found
}

// hkAugment is Hopcroft–Karp's DFS phase from left vertex u along the
// layering.
func (ws *Workspace) hkAugment(u int) bool {
	for _, v := range ws.adj[u] {
		w := ws.matchR[v]
		if w == -1 || (ws.dist[w] == ws.dist[u]+1 && ws.hkAugment(w)) {
			ws.matchL[u] = v
			ws.matchR[v] = u
			return true
		}
	}
	ws.dist[u] = hkInf
	return false
}
