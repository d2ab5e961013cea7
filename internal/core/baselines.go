package core

import (
	"math"

	"dasc/internal/model"
)

// Closest is the paper's first baseline: every worker greedily takes the
// nearest feasible still-unassigned task, ignoring dependencies. Its
// assignment is returned RAW — pairs violating the dependency constraint are
// included. The platform (and the scoring helpers) count only the valid
// subset, exactly as the paper evaluates the baselines: invalid assignments
// waste the worker and the task and score zero.
type Closest struct{}

// NewClosest returns the Closest baseline allocator.
func NewClosest() *Closest { return &Closest{} }

// Name implements Allocator.
func (c *Closest) Name() string { return NameClosest }

// DependencyAware implements Allocator: Closest ignores dependencies.
func (c *Closest) DependencyAware() bool { return false }

// Assign implements Allocator.
func (c *Closest) Assign(b *Batch) *model.Assignment {
	out := newAssignment(min(len(b.Workers), len(b.Tasks)))
	taken := b.arena.takenTasks(len(b.Tasks))
	idx := b.Index()
	for wi := range b.Workers {
		best := -1
		bestD := math.Inf(1)
		// The index's strategy set is exactly the feasible tasks in
		// ascending order, so the scan's iteration order (and tie-breaks)
		// are preserved.
		for _, ti := range idx.StrategySet(wi) {
			if taken[ti] {
				continue
			}
			if d := b.dist(b.Workers[wi].Loc, b.Tasks[ti].Loc); d < bestD {
				bestD = d
				best = int(ti)
			}
		}
		if best >= 0 {
			taken[best] = true
			out.Add(b.Workers[wi].W.ID, b.Tasks[best].ID)
		}
	}
	out.Sort()
	return out
}

// Random is the paper's second baseline: every worker takes a uniformly
// random feasible still-unassigned task, ignoring dependencies. Like
// Closest, it returns its raw (possibly dependency-violating) assignment.
type Random struct {
	seed int64
}

// NewRandom returns the Random baseline allocator with the given seed.
func NewRandom(seed int64) *Random { return &Random{seed: seed} }

// Name implements Allocator.
func (r *Random) Name() string { return NameRandom }

// DependencyAware implements Allocator: Random ignores dependencies.
func (r *Random) DependencyAware() bool { return false }

// Assign implements Allocator.
func (r *Random) Assign(b *Batch) *model.Assignment {
	rng := b.arena.rng(r.seed)
	out := newAssignment(min(len(b.Workers), len(b.Tasks)))
	taken := b.arena.takenTasks(len(b.Tasks))
	idx := b.Index()
	avail := b.arena.avail
	for wi := range b.Workers {
		avail = avail[:0]
		for _, ti := range idx.StrategySet(wi) {
			if !taken[ti] {
				avail = append(avail, int(ti))
			}
		}
		if len(avail) == 0 {
			continue
		}
		ti := avail[rng.Intn(len(avail))]
		taken[ti] = true
		out.Add(b.Workers[wi].W.ID, b.Tasks[ti].ID)
	}
	b.arena.avail = avail
	out.Sort()
	return out
}

// takenTasks returns the arena's cleared taken-task markers for n tasks.
func (a *stepArena) takenTasks(n int) []bool {
	a.taken = grown(a.taken, n)
	clear(a.taken)
	return a.taken
}
