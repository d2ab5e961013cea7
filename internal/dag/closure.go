package dag

// TransitiveReduction returns the minimal graph with the same reachability:
// an edge u → v is kept only when v is not reachable from u through another
// dependency. Useful for rendering dependency charts. Returns ErrCycle on
// cyclic graphs.
func (g *Graph) TransitiveReduction() (*Graph, error) {
	if !g.IsAcyclic() {
		return nil, ErrCycle
	}
	out := New(g.Len())
	for u := 0; u < g.Len(); u++ {
		// v is redundant if some other dependency w of u can reach v.
		direct := g.deps[u]
		for _, v32 := range direct {
			v := int(v32)
			redundant := false
			for _, w32 := range direct {
				w := int(w32)
				if w == v {
					continue
				}
				if g.reaches(w, v) {
					redundant = true
					break
				}
			}
			if !redundant {
				if err := out.AddDep(u, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// reaches reports whether target is reachable from start along dependencies.
func (g *Graph) reaches(start, target int) bool {
	if start == target {
		return true
	}
	seen := make(map[int]bool)
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v32 := range g.deps[u] {
			v := int(v32)
			if v == target {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}
