// Package dag implements the directed acyclic dependency graph over task IDs
// that underpins DA-SC: a task points at the tasks it depends on. It provides
// cycle detection, topological ordering, level decomposition (the critical
// path of a workload) and transitive reduction (for dependency charts).
//
// Vertices are dense non-negative integers; the graph grows automatically as
// edges mention new vertices.
package dag

import (
	"errors"
	"fmt"
)

// ErrCycle is returned when an operation requires acyclicity but the graph
// contains a dependency cycle.
var ErrCycle = errors.New("dag: dependency cycle detected")

// Graph is a mutable directed graph. An edge u → v means "u depends on v"
// (v must be assigned/finished before u can be conducted).
type Graph struct {
	deps       [][]int32 // deps[u] = tasks u depends on
	dependents [][]int32 // dependents[v] = tasks that depend on v
}

// New returns an empty graph with capacity hints for n vertices.
func New(n int) *Graph {
	return &Graph{
		deps:       make([][]int32, n),
		dependents: make([][]int32, n),
	}
}

// Len returns the number of vertices (the highest mentioned vertex + 1).
func (g *Graph) Len() int { return len(g.deps) }

func (g *Graph) grow(v int) {
	for v >= len(g.deps) {
		g.deps = append(g.deps, nil)
		g.dependents = append(g.dependents, nil)
	}
}

// AddDep records that task u depends on task v. Self-dependencies are
// rejected; duplicate edges are ignored.
func (g *Graph) AddDep(u, v int) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("dag: negative vertex in edge %d→%d", u, v)
	}
	if u == v {
		return fmt.Errorf("dag: self-dependency on %d: %w", u, ErrCycle)
	}
	g.grow(u)
	g.grow(v)
	for _, w := range g.deps[u] {
		if int(w) == v {
			return nil
		}
	}
	g.deps[u] = append(g.deps[u], int32(v))
	g.dependents[v] = append(g.dependents[v], int32(u))
	return nil
}

// Deps returns the direct dependencies of u. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Deps(u int) []int32 {
	if u < 0 || u >= len(g.deps) {
		return nil
	}
	return g.deps[u]
}

// InDegrees returns, for every vertex, how many tasks it depends on.
func (g *Graph) InDegrees() []int {
	out := make([]int, len(g.deps))
	for u := range g.deps {
		out[u] = len(g.deps[u])
	}
	return out
}
