package dag

// TopoSort returns a topological order in which every task appears after all
// of its dependencies (dependencies-first). It returns ErrCycle when the
// graph is cyclic. Kahn's algorithm with an index-ordered frontier makes the
// output deterministic.
func (g *Graph) TopoSort() ([]int, error) {
	n := g.Len()
	indeg := g.InDegrees()
	// Min-heap on vertex index keeps the order stable across runs.
	frontier := &intHeap{}
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			frontier.push(u)
		}
	}
	order := make([]int, 0, n)
	for frontier.len() > 0 {
		v := frontier.pop()
		order = append(order, v)
		for _, u := range g.dependents[v] {
			indeg[u]--
			if indeg[u] == 0 {
				frontier.push(int(u))
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no dependency cycles.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// FindCycle returns one dependency cycle as a vertex sequence
// v0 → v1 → … → v0 (each vertex depends on the next), or nil when the graph
// is acyclic.
func (g *Graph) FindCycle() []int { return FindCycleIn(g.Len(), g.Deps) }

// FindCycleIn is FindCycle over dependency lists held elsewhere: vertices
// are [0, n) and deps(u) lists, in order, the vertices u depends on, each in
// [0, n). A caller whose lists already are a graph's adjacency — validated
// task dependency lists, say — searches them in place instead of building
// a Graph, and gets the cycle FindCycle would return on that Graph.
func FindCycleIn[T ~int32](n int, deps func(u int) []T) []int {
	const (
		white = 0 // unvisited
		grey  = 1 // on stack
		black = 2 // done
	)
	color := make([]uint8, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		for _, v32 := range deps(u) {
			v := int(v32)
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				// Found a back edge u → v; unwind u..v via parents.
				cycle = append(cycle, v)
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse so the cycle follows dependency direction.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < n; u++ {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// Levels partitions an acyclic graph into dependency levels: level 0 holds
// tasks with no dependencies, level k holds tasks whose longest dependency
// chain has length k. Tasks within one level are mutually independent along
// dependency chains. Returns ErrCycle on cyclic graphs.
func (g *Graph) Levels() ([][]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	level := make([]int, g.Len())
	maxLevel := 0
	for _, u := range order {
		for _, v := range g.deps[u] {
			if lv := level[v] + 1; lv > level[u] {
				level[u] = lv
			}
		}
		if level[u] > maxLevel {
			maxLevel = level[u]
		}
	}
	out := make([][]int, maxLevel+1)
	for _, u := range order {
		out[level[u]] = append(out[level[u]], u)
	}
	return out, nil
}

// CriticalPathLen returns the length (edge count) of the longest dependency
// chain, or ErrCycle.
func (g *Graph) CriticalPathLen() (int, error) {
	levels, err := g.Levels()
	if err != nil {
		return 0, err
	}
	return len(levels) - 1, nil
}

// intHeap is a tiny min-heap of ints used by TopoSort.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
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
