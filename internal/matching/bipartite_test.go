package matching

import (
	"math/rand"
	"testing"
)

// bruteMaxMatching enumerates all subsets of edges implicitly via recursion:
// for small graphs it returns the true maximum matching size.
func bruteMaxMatching(b *Bipartite) int {
	usedR := make([]bool, b.N)
	var rec func(u int) int
	rec = func(u int) int {
		if u == len(b.Adj) {
			return 0
		}
		best := rec(u + 1) // leave u unmatched
		for _, v := range b.Adj[u] {
			if !usedR[v] {
				usedR[v] = true
				if r := 1 + rec(u+1); r > best {
					best = r
				}
				usedR[v] = false
			}
		}
		return best
	}
	return rec(0)
}

// maxMatchingKuhn is the oracle for MaxMatchingHK on graphs too large for
// bruteMaxMatching: Kuhn's augmenting-path algorithm in O(V·E), with the
// same return shape.
func maxMatchingKuhn(b *Bipartite) (matchL []int, size int) {
	nL := len(b.Adj)
	matchL = make([]int, nL)
	matchR := make([]int, b.N)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	visited := make([]bool, b.N)
	var try func(u int) bool
	try = func(u int) bool {
		for _, v := range b.Adj[u] {
			if visited[v] {
				continue
			}
			visited[v] = true
			if matchR[v] == -1 || try(matchR[v]) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		return false
	}
	for u := 0; u < nL; u++ {
		for i := range visited {
			visited[i] = false
		}
		if try(u) {
			size++
		}
	}
	return matchL, size
}

func randBipartite(rng *rand.Rand, left, right int, p float64) *Bipartite {
	b := NewBipartite(left, right)
	for u := 0; u < left; u++ {
		for v := 0; v < right; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b
}

func validateMatching(t *testing.T, b *Bipartite, matchL []int, size int) {
	t.Helper()
	seenR := make(map[int]bool)
	count := 0
	for u, v := range matchL {
		if v == -1 {
			continue
		}
		count++
		if seenR[v] {
			t.Fatalf("right vertex %d matched twice", v)
		}
		seenR[v] = true
		found := false
		for _, w := range b.Adj[u] {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("matched pair (%d,%d) is not an edge", u, v)
		}
	}
	if count != size {
		t.Fatalf("reported size %d, actual %d", size, count)
	}
}

func TestMatchingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		left := 1 + rng.Intn(7)
		right := 1 + rng.Intn(7)
		b := randBipartite(rng, left, right, 0.4)
		want := bruteMaxMatching(b)
		mk, sk := maxMatchingKuhn(b)
		validateMatching(t, b, mk, sk)
		if sk != want {
			t.Fatalf("trial %d: Kuhn size %d, brute %d", trial, sk, want)
		}
		mh, sh := b.MaxMatchingHK()
		validateMatching(t, b, mh, sh)
		if sh != want {
			t.Fatalf("trial %d: HK size %d, brute %d", trial, sh, want)
		}
	}
}

func TestMatchingKnownCases(t *testing.T) {
	// Perfect matching exists: 0-0, 1-1.
	b := NewBipartite(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1)
	if _, size := b.MaxMatchingHK(); size != 2 {
		t.Error("perfect matching not found")
	}
	// Both left vertices compete for the same single right vertex.
	c := NewBipartite(2, 1)
	c.AddEdge(0, 0)
	c.AddEdge(1, 0)
	if _, size := c.MaxMatchingHK(); size == 2 {
		t.Error("impossible perfect matching reported")
	}
	if _, size := c.MaxMatchingHK(); size != 1 {
		t.Errorf("size = %d, want 1", size)
	}
	// Augmenting-path case: greedy 0→0 must be undone.
	d := NewBipartite(2, 2)
	d.AddEdge(0, 0)
	d.AddEdge(0, 1)
	d.AddEdge(1, 0)
	if _, size := d.MaxMatchingHK(); size != 2 {
		t.Errorf("augmenting case size = %d, want 2", size)
	}
}

func TestMatchingEmptyGraphs(t *testing.T) {
	b := NewBipartite(0, 5)
	if _, size := b.MaxMatchingHK(); size != 0 {
		t.Error("empty left should match nothing")
	}
	c := NewBipartite(3, 0)
	if _, size := maxMatchingKuhn(c); size != 0 {
		t.Error("no right vertices should match nothing")
	}
}

func TestAddEdgeBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range edge did not panic")
		}
	}()
	b := NewBipartite(1, 1)
	b.AddEdge(0, 5)
}

func TestHKAgreesWithKuhnLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		b := randBipartite(rng, 60, 70, 0.1)
		_, sk := maxMatchingKuhn(b)
		_, sh := b.MaxMatchingHK()
		if sk != sh {
			t.Fatalf("trial %d: Kuhn %d != HK %d", trial, sk, sh)
		}
	}
}
