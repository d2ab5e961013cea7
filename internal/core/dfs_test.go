package core

import (
	"math/rand"
	"testing"

	"dasc/internal/model"
)

func TestDFSExample1Optimal(t *testing.T) {
	in := model.Example1()
	b := NewStaticBatch(in)
	d := NewDFS(DFSOptions{})
	a := d.Assign(b)
	validateBatchAssignment(t, b, a)
	if !d.Exact() {
		t.Error("Exact() = false on tiny instance")
	}
	if a.Size() != 3 {
		t.Fatalf("DFS score = %d, want 3", a.Size())
	}
}

// bruteOptimal exhaustively enumerates every worker→task/idle profile and
// returns the best dependency-consistent score — an independent oracle for
// the DFS pruning logic.
func bruteOptimal(b *Batch) int {
	strategies := b.StrategySets()
	n := len(b.Workers)
	claimed := make([]bool, len(b.Tasks))
	choice := make([]int, n)
	best := 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			kept := map[model.TaskID]bool{}
			for _, ti := range choice {
				if ti >= 0 {
					kept[b.Tasks[ti].ID] = true
				}
			}
			for {
				removed := false
				for id := range kept {
					for _, d := range b.In.Task(id).Deps {
						if !kept[d] && !b.Satisfied.Has(d) {
							delete(kept, id)
							removed = true
							break
						}
					}
				}
				if !removed {
					break
				}
			}
			if len(kept) > best {
				best = len(kept)
			}
			return
		}
		choice[i] = -1
		rec(i + 1)
		for _, ti := range strategies[i] {
			if claimed[ti] {
				continue
			}
			claimed[ti] = true
			choice[i] = ti
			rec(i + 1)
			claimed[ti] = false
			choice[i] = -1
		}
	}
	rec(0)
	return best
}

func TestDFSMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 2+rng.Intn(4), 2+rng.Intn(5), 3, true)
		b := NewStaticBatch(in)
		want := bruteOptimal(b)
		d := NewDFS(DFSOptions{})
		a := d.Assign(b)
		validateBatchAssignment(t, b, a)
		if !d.Exact() {
			t.Fatalf("trial %d: truncated", trial)
		}
		if a.Size() != want {
			t.Fatalf("trial %d: DFS %d, brute %d", trial, a.Size(), want)
		}
	}
}

func TestApproximationAlgorithmsNeverBeatDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 2+rng.Intn(5), 2+rng.Intn(6), 3, true)
		b := NewStaticBatch(in)
		opt := NewDFS(DFSOptions{}).Assign(b).Size()
		for _, name := range AllNames() {
			alloc, _ := NewByName(name, int64(trial))
			// Baselines return raw assignments; score the valid subset.
			got := DependencyFixpoint(b, alloc.Assign(b)).Size()
			if got > opt {
				t.Fatalf("trial %d: %s scored %d > optimal %d", trial, name, got, opt)
			}
		}
	}
}

// TestGreedyApproximationRatio spot-checks Theorem III.2's (1−1/e) bound per
// batch on random instances.
func TestGreedyApproximationRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 3+rng.Intn(4), 3+rng.Intn(5), 3, true)
		b := NewStaticBatch(in)
		opt := NewDFS(DFSOptions{}).Assign(b).Size()
		got := NewGreedy().Assign(b).Size()
		if float64(got) < (1-1/2.718281828)*float64(opt)-1e-9 {
			t.Fatalf("trial %d: greedy %d below (1−1/e)·%d", trial, got, opt)
		}
	}
}

func TestDFSNodeCap(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	in := randomInstance(rng, 12, 14, 2, true)
	b := NewStaticBatch(in)
	// A cap below the tree depth guarantees truncation: the search cannot
	// even reach one leaf.
	d := NewDFS(DFSOptions{MaxNodes: 3})
	a := d.Assign(b)
	validateBatchAssignment(t, b, a) // truncated result must still be valid
	if d.Exact() {
		t.Error("Exact() = true under a 3-node cap")
	}
}

func TestBaselinesAreDominatedOnExample1(t *testing.T) {
	in := model.Example1()
	b := NewStaticBatch(in)
	closest := DependencyFixpoint(b, NewClosest().Assign(b))
	validateBatchAssignment(t, b, closest)
	random := DependencyFixpoint(b, NewRandom(3).Assign(b))
	validateBatchAssignment(t, b, random)
	greedy := NewGreedy().Assign(b)
	if closest.Size() > greedy.Size() || random.Size() > greedy.Size() {
		t.Errorf("baseline beats greedy: closest=%d random=%d greedy=%d",
			closest.Size(), random.Size(), greedy.Size())
	}
	// The paper's Figure 1(b) narrative: dependency-oblivious nearest
	// matching completes only 1 task on Example 1.
	if closest.Size() != 1 {
		t.Errorf("closest score = %d, want 1", closest.Size())
	}
}

func TestRandomBaselineDeterministicPerSeed(t *testing.T) {
	in := model.Example1()
	b := NewStaticBatch(in)
	a1 := NewRandom(7).Assign(b)
	a2 := NewRandom(7).Assign(b)
	if a1.String() != a2.String() {
		t.Error("Random baseline not reproducible for fixed seed")
	}
}
