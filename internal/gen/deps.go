package gen

import (
	"math/rand"
	"slices"

	"dasc/internal/model"
)

// depGrower builds one generation's dependency sets. Its candidate pool,
// set buffer and membership stamps are reused from task to task, so a task
// allocates only the set grow returns.
type depGrower struct {
	rng   *rand.Rand
	pool  []model.TaskID // the candidates, shuffled in place
	deps  []model.TaskID // the set under construction
	stamp []int32        // stamp[id] == gen: id is in the set under construction
	gen   int32
}

// newDepGrower returns a grower drawing from rng over an instance of up to
// tasks tasks.
func newDepGrower(rng *rand.Rand, tasks int) *depGrower {
	return &depGrower{rng: rng, stamp: make([]int32, tasks)}
}

// grow implements the paper's dependency construction for one task:
// draw a target size from sizeRange, then repeatedly pick a uniformly random
// earlier task from candidates, adding it *and its whole dependency set*
// (keeping the set transitively closed and acyclic) until the target size is
// reached or the candidates are exhausted. tasks[:i] must already carry
// closed dependency sets. The picks are the front of a full shuffle of
// candidates, so the draws are the same whatever the target.
func (g *depGrower) grow(tasks []model.Task, candidates []model.TaskID, sizeRange Range) []model.TaskID {
	target := sizeRange.SampleInt(g.rng)
	if target <= 0 || len(candidates) == 0 {
		return nil
	}
	g.pool = append(g.pool[:0], candidates...)
	shuffleTaskIDs(g.rng, g.pool)
	g.gen++
	g.deps = g.deps[:0]
	for _, cand := range g.pool {
		if len(g.deps) >= target {
			break
		}
		g.add(cand)
		for _, dd := range tasks[cand].Deps {
			g.add(dd)
		}
	}
	deps := slices.Clone(g.deps)
	slices.Sort(deps)
	return deps
}

func (g *depGrower) add(id model.TaskID) {
	if g.stamp[id] != g.gen {
		g.stamp[id] = g.gen
		g.deps = append(g.deps, id)
	}
}

// shuffleTaskIDs permutes a exactly as rng.Shuffle(len(a), swap) does,
// taking the same draws, without a call through a swap closure per
// element: the generated instances depend on every draw. For i from
// len(a)−1 down to 1 it swaps a[i] with a[j], j drawn from [0, i] by
// math/rand's unexported int31n: Lemire's multiply-shift over one Uint32,
// redrawn while the product's low half is below 2³² mod (i+1). Shuffle
// switches to Int63n only for i ≥ 2³¹−1, beyond any task count.
func shuffleTaskIDs(rng *rand.Rand, a []model.TaskID) {
	for i := len(a) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(rng.Uint32()) * uint64(n)
		if low := uint32(prod); low < n {
			thresh := -n % n
			for low < thresh {
				prod = uint64(rng.Uint32()) * uint64(n)
				low = uint32(prod)
			}
		}
		j := prod >> 32
		a[i], a[j] = a[j], a[i]
	}
}
