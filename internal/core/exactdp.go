package core

import (
	"math/bits"

	"dasc/internal/matching"
	"dasc/internal/model"
)

// ExactDP is a second exact solver, independent of the DFS branch-and-bound:
// it enumerates task subsets as bitmasks, keeps only the dependency-closed
// ones, and checks staffability with a maximum bipartite matching. The best
// closed, fully-staffable subset is the optimum, because any valid
// assignment's task set is closed and staffable, and vice versa.
//
// Limited to batches with at most 24 pending tasks (2^24 subsets); larger
// batches return ok=false from AssignExact. Its role is cross-validating DFS
// in tests and tiny deployments, approaching the optimum from a completely
// different algorithmic angle.
type ExactDP struct {
	// MaxTasks overrides the 24-task guard (mostly for tests).
	MaxTasks int
}

// NewExactDP returns the subset-DP exact solver.
func NewExactDP() *ExactDP { return &ExactDP{} }

// Name implements Allocator.
func (e *ExactDP) Name() string { return "ExactDP" }

// Assign implements Allocator. Batches beyond the task limit return an
// empty assignment; use AssignExact to detect that case.
func (e *ExactDP) Assign(b *Batch) *model.Assignment {
	a, _ := e.AssignExact(b)
	return a
}

// AssignExact computes the optimal batch assignment. ok is false when the
// batch exceeds the subset-enumeration limit.
func (e *ExactDP) AssignExact(b *Batch) (*model.Assignment, bool) {
	limit := e.MaxTasks
	if limit <= 0 {
		limit = 24
	}
	m := len(b.Tasks)
	if m > limit {
		return model.NewAssignment(), false
	}

	// depMask[ti] = bitmask of ti's unsatisfied dependencies; dead tasks
	// (dependency outside the batch and unsatisfied) can never be assigned.
	w := b.depWiring()
	depMask := make([]uint32, m)
	dead := uint32(0)
	for ti := range b.Tasks {
		if w.deadTask[ti] {
			dead |= 1 << uint(ti)
			continue
		}
		for _, di := range w.deps(ti) {
			depMask[ti] |= 1 << uint(di)
		}
	}
	candidates := make([][]int, m)
	for ti, t := range b.Tasks {
		candidates[ti] = b.CandidateWorkers(t)
	}

	weights := make([]float64, m)
	maxW := 0.0
	for ti, t := range b.Tasks {
		weights[ti] = t.EffWeight()
		if weights[ti] > maxW {
			maxW = weights[ti]
		}
	}
	bestMask := uint32(0)
	bestWeight := 0.0
	total := uint32(1) << uint(m)
	for mask := uint32(1); mask < total; mask++ {
		// Weight upper bound prunes the matching calls.
		if float64(bits.OnesCount32(mask))*maxW <= bestWeight {
			continue
		}
		if mask&dead != 0 {
			continue
		}
		var weight float64
		for rest := mask; rest != 0; rest &= rest - 1 {
			weight += weights[bits.TrailingZeros32(rest)]
		}
		if weight <= bestWeight {
			continue
		}
		// Closure: every member's dependencies are inside the mask.
		closed := true
		rest := mask
		for rest != 0 {
			ti := bits.TrailingZeros32(rest)
			rest &= rest - 1
			if depMask[ti]&^mask != 0 {
				closed = false
				break
			}
		}
		if !closed {
			continue
		}
		if e.staffable(b, mask, candidates) {
			bestMask, bestWeight = mask, weight
		}
	}
	if bestMask == 0 {
		return model.NewAssignment(), true
	}
	// Materialise one concrete staffing for the winning subset.
	members := make([]int, 0, bits.OnesCount32(bestMask))
	for rest := bestMask; rest != 0; rest &= rest - 1 {
		members = append(members, bits.TrailingZeros32(rest))
	}
	bg, cols := subsetGraph(b, members, candidates)
	matchL, _ := bg.MaxMatchingHK()
	out := model.NewAssignment()
	for row, ti := range members {
		out.Add(b.Workers[cols[matchL[row]]].W.ID, b.Tasks[ti].ID)
	}
	return finishAssignment(b, out), true
}

// staffable reports whether every task in the mask can get a distinct
// feasible worker.
func (e *ExactDP) staffable(b *Batch, mask uint32, candidates [][]int) bool {
	members := make([]int, 0, bits.OnesCount32(mask))
	for rest := mask; rest != 0; rest &= rest - 1 {
		members = append(members, bits.TrailingZeros32(rest))
	}
	bg, _ := subsetGraph(b, members, candidates)
	_, size := bg.MaxMatchingHK()
	return size == len(members)
}

// subsetGraph builds the bipartite graph of the member tasks against the
// union of their candidate workers, returning the worker-index column map.
func subsetGraph(b *Batch, members []int, candidates [][]int) (*matching.Bipartite, []int) {
	colOf := make(map[int]int)
	var cols []int
	bg := matching.NewBipartite(len(members), 0)
	for row, ti := range members {
		for _, wi := range candidates[ti] {
			ci, ok := colOf[wi]
			if !ok {
				ci = len(cols)
				colOf[wi] = ci
				cols = append(cols, wi)
			}
			bg.Adj[row] = append(bg.Adj[row], ci)
		}
	}
	bg.N = len(cols)
	return bg, cols
}
