package dag

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func mustAdd(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	if err := g.AddDep(u, v); err != nil {
		t.Fatalf("AddDep(%d,%d): %v", u, v, err)
	}
}

// paperGraph builds the dependency graph of Example 1:
// t2→t1, t3→{t1,t2}, t5→t4 (0-indexed: 1→0, 2→{0,1}, 4→3).
func paperGraph(t *testing.T) *Graph {
	g := New(5)
	mustAdd(t, g, 1, 0)
	mustAdd(t, g, 2, 0)
	mustAdd(t, g, 2, 1)
	mustAdd(t, g, 4, 3)
	return g
}

// hasDep reports whether u directly depends on v.
func hasDep(g *Graph, u, v int) bool {
	for _, w := range g.Deps(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// ancestors returns the transitive dependency set of u, ascending, u
// excluded: the reachability oracle for TransitiveReduction.
func ancestors(g *Graph, u int) []int {
	seen := make([]bool, g.Len())
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Deps(x) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, int(v))
			}
		}
	}
	out := []int{}
	for v, ok := range seen {
		if ok && v != u {
			out = append(out, v)
		}
	}
	return out
}

// sortedInts converts and sorts an int32 slice for comparison.
func sortedInts(in []int32) []int {
	out := make([]int, len(in))
	for i, v := range in {
		out[i] = int(v)
	}
	sort.Ints(out)
	return out
}

func TestAddDepBasics(t *testing.T) {
	g := New(0)
	mustAdd(t, g, 3, 1)
	if g.Len() != 4 {
		t.Errorf("Len = %d, want 4 (auto-grow)", g.Len())
	}
	if !hasDep(g, 3, 1) || hasDep(g, 1, 3) {
		t.Error("dependency direction wrong")
	}
	mustAdd(t, g, 3, 1) // duplicate ignored
	if n := len(g.Deps(3)); n != 1 {
		t.Errorf("%d dependencies after duplicate add", n)
	}
	if err := g.AddDep(2, 2); !errors.Is(err, ErrCycle) {
		t.Errorf("self-dep err = %v", err)
	}
	if err := g.AddDep(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
}

func TestDepsAndDependents(t *testing.T) {
	g := paperGraph(t)
	if got := sortedInts(g.Deps(2)); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Deps(2) = %v", got)
	}
	if got := sortedInts(g.dependents[0]); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("dependents[0] = %v", got)
	}
	if g.Deps(99) != nil || g.Deps(-1) != nil {
		t.Error("out-of-range Deps should be nil")
	}
}

func TestRoots(t *testing.T) {
	g := paperGraph(t)
	var roots []int
	for u, d := range g.InDegrees() {
		if d == 0 {
			roots = append(roots, u)
		}
	}
	if !reflect.DeepEqual(roots, []int{0, 3}) {
		t.Errorf("vertices with in-degree 0 = %v", roots)
	}
}

func TestTopoSortRespectsDeps(t *testing.T) {
	g := paperGraph(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Deps(u) {
			if pos[int(v)] >= pos[u] {
				t.Errorf("dep %d of %d appears at %d >= %d", v, u, pos[int(v)], pos[u])
			}
		}
	}
	if len(order) != 5 {
		t.Errorf("order length %d", len(order))
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := paperGraph(t)
	a, _ := g.TopoSort()
	b, _ := g.TopoSort()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic order: %v vs %v", a, b)
	}
}

func TestCycleDetection(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	if !g.IsAcyclic() {
		t.Fatal("chain should be acyclic")
	}
	if c := FindCycleIn(g.Len(), g.Deps); c != nil {
		t.Fatalf("FindCycle on acyclic = %v", c)
	}
	mustAdd(t, g, 2, 0) // close the cycle
	if g.IsAcyclic() {
		t.Fatal("cycle not detected")
	}
	if _, err := g.TopoSort(); !errors.Is(err, ErrCycle) {
		t.Errorf("TopoSort err = %v", err)
	}
	cyc := FindCycleIn(g.Len(), g.Deps)
	if len(cyc) != 3 {
		t.Fatalf("FindCycle = %v", cyc)
	}
	// Verify each vertex depends on the next (wrapping).
	for i, u := range cyc {
		v := cyc[(i+1)%len(cyc)]
		if !hasDep(g, u, v) {
			t.Errorf("cycle edge %d→%d missing", u, v)
		}
	}
}

func TestLevels(t *testing.T) {
	g := paperGraph(t)
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 3}, {1, 4}, {2}}
	if !reflect.DeepEqual(levels, want) {
		t.Errorf("Levels = %v, want %v", levels, want)
	}
	if cp, _ := g.CriticalPathLen(); cp != 2 {
		t.Errorf("CriticalPathLen = %d", cp)
	}
}

func TestTransitiveReduction(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 2, 1)
	mustAdd(t, g, 1, 0)
	mustAdd(t, g, 2, 0) // redundant: 2→1→0
	r, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if hasDep(r, 2, 0) {
		t.Error("redundant edge kept")
	}
	if !hasDep(r, 2, 1) || !hasDep(r, 1, 0) {
		t.Error("required edges dropped")
	}
}

// randomDAG builds a random acyclic graph by only adding edges from higher to
// lower indexes, mirroring the paper's "only depend on earlier tasks" rule.
func randomDAG(rng *rand.Rand, n, edges int) *Graph {
	g := New(n)
	for i := 0; i < edges; i++ {
		u := 1 + rng.Intn(n-1)
		v := rng.Intn(u)
		_ = g.AddDep(u, v)
	}
	return g
}

func TestRandomDAGProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(rng, 2+rng.Intn(40), rng.Intn(120))
		if !g.IsAcyclic() {
			t.Fatal("earlier-only DAG reported cyclic")
		}
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, g.Len())
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < g.Len(); u++ {
			for _, v := range g.Deps(u) {
				if pos[v] >= pos[u] {
					t.Fatal("topo order violates dependency")
				}
			}
		}
		// Reduction preserves reachability.
		r, err := g.TransitiveReduction()
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.Len(); u++ {
			if !reflect.DeepEqual(ancestors(r, u), ancestors(g, u)) {
				t.Fatalf("reduction changed ancestors of %d", u)
			}
		}
	}
}

func TestLevelsOnCycle(t *testing.T) {
	g := New(2)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 0)
	if _, err := g.Levels(); !errors.Is(err, ErrCycle) {
		t.Errorf("Levels on cycle err = %v", err)
	}
	if _, err := g.TransitiveReduction(); !errors.Is(err, ErrCycle) {
		t.Errorf("TransitiveReduction on cycle err = %v", err)
	}
}

func TestFindCycleMatchesAcyclicityOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := New(n)
		for e := 0; e < rng.Intn(3*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = g.AddDep(u, v)
			}
		}
		cyc := FindCycleIn(g.Len(), g.Deps)
		if (cyc != nil) == g.IsAcyclic() {
			t.Fatalf("trial %d: FindCycleIn (%v) disagrees with topo sort (acyclic %v)",
				trial, cyc, g.IsAcyclic())
		}
		for i, u := range cyc {
			if v := cyc[(i+1)%len(cyc)]; !hasDep(g, u, v) {
				t.Fatalf("trial %d: cycle %v has no edge %d→%d", trial, cyc, u, v)
			}
		}
	}
}
