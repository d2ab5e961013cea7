package core

import (
	"fmt"
	"sort"

	"dasc/internal/model"
)

// Allocator assigns the workers of one batch to its tasks. Implementations
// must return an assignment that satisfies all four DA-SC constraints with
// respect to the batch (dependencies may be met by batch-internal
// co-assignment or by Batch.Satisfied).
type Allocator interface {
	// Name returns the identifier used in experiment tables, e.g. "Greedy".
	Name() string
	// Assign computes the batch assignment M_b. The assignment belongs to
	// the caller. The batch, and every slice it or its index hands out, is
	// valid only until the next Kernel.Step (a batch built by NewBatch or
	// NewStaticBatch stays valid while it is used), so an implementation
	// must not keep any of it past the call. Only one Assign may run on a
	// batch at a time: allocators share the batch's step arena.
	Assign(b *Batch) *model.Assignment
	// DependencyAware reports whether the allocator honours the dependency
	// constraint. For such an allocator the kernel retires every task with
	// a dependency that left the population unassigned: constraint 4 rules
	// the task out of every later batch, so it is no longer offered
	// (DESIGN.md §3.13). The Closest and Random baselines ignore
	// dependencies and report false: they keep being offered such tasks and
	// are charged the pairs they waste on them.
	DependencyAware() bool
}

// Known allocator names, matching the labels of the paper's figures.
const (
	NameGreedy  = "Greedy"
	NameGame    = "Game"
	NameGame5   = "Game-5%"
	NameGG      = "G-G"
	NameClosest = "Closest"
	NameRandom  = "Random"
	NameDFS     = "DFS"
)

// NewByName constructs an allocator from its paper label, seeding its
// randomness from seed. It returns an error on unknown names.
func NewByName(name string, seed int64) (Allocator, error) {
	switch name {
	case NameGreedy:
		return NewGreedy(), nil
	case NameGame:
		return NewGame(GameOptions{Seed: seed}), nil
	case NameGame5:
		return NewGame(GameOptions{Seed: seed, Threshold: 0.05}), nil
	case NameGG:
		return NewGame(GameOptions{Seed: seed, GreedyInit: true}), nil
	case NameClosest:
		return NewClosest(), nil
	case NameRandom:
		return NewRandom(seed), nil
	case NameDFS:
		return NewDFS(DFSOptions{}), nil
	default:
		return nil, fmt.Errorf("core: unknown allocator %q", name)
	}
}

// AllNames lists the six approaches compared throughout Section V, in the
// paper's plotting order.
func AllNames() []string {
	return []string{NameGG, NameGame, NameGame5, NameGreedy, NameClosest, NameRandom}
}

// newAssignment returns an empty assignment with room for n pairs.
func newAssignment(n int) *model.Assignment {
	if n == 0 {
		return model.NewAssignment()
	}
	return &model.Assignment{Pairs: make([]model.Pair, 0, n)}
}

// finishAssignment applies the batch-aware dependency fixpoint filter in
// place and sorts, so every allocator returns a canonical,
// constraint-satisfying result. Pair feasibility (skill/deadline/distance)
// is the allocator's responsibility — every implementation only ever
// proposes pairs that passed Batch.Feasible.
func finishAssignment(b *Batch, a *model.Assignment) *model.Assignment {
	a.Pairs = b.arena.fixpoint(b, a.Pairs)
	a.Sort()
	return a
}

// DependencyFixpoint repeatedly removes pairs whose task has a dependency
// that is neither kept in the assignment nor in b.Satisfied, until stable.
// The result satisfies the dependency constraint by construction; it is a
// new assignment, and a is left as it was.
func DependencyFixpoint(b *Batch, a *model.Assignment) *model.Assignment {
	out := model.NewAssignment()
	if len(a.Pairs) > 0 {
		out.Pairs = b.arena.fixpoint(b, append(make([]model.Pair, 0, len(a.Pairs)), a.Pairs...))
	}
	return out
}

// fixpoint is DependencyFixpoint's removal loop, filtering pairs in place
// and keeping their order; it returns nil when no pair survives. Each round
// marks the surviving pairs' tasks with a fresh stamp in the arena's
// task-ID table, then drops every pair with a dependency neither marked
// nor satisfied.
func (a *stepArena) fixpoint(b *Batch, pairs []model.Pair) []model.Pair {
	s := &a.pairTasks
	for len(pairs) > 0 {
		base := s.reserve(len(b.In.Tasks), 1)
		for _, p := range pairs {
			if p.Task >= 0 && int(p.Task) < len(s.tag) {
				s.tag[p.Task] = base
			}
		}
		kept := pairs[:0]
		for _, p := range pairs {
			ok := true
			for _, d := range b.In.Task(p.Task).Deps {
				if s.index(int(d), base, 1) < 0 && !b.Satisfied.Has(d) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, p)
			}
		}
		if len(kept) == len(pairs) {
			return pairs
		}
		pairs = kept
	}
	return nil
}

// DispatchOrder returns m's pairs ordered so that every pair follows the
// pairs of its in-assignment dependencies, letting a platform compute each
// task's service start from its dependencies' finish times in one pass.
// It is a permutation of m.Pairs that keeps the given order wherever the
// dependencies allow: a task-sorted assignment whose tasks depend only on
// lower IDs (what the built-in allocators return on registration-ordered
// instances) comes back unchanged, and a task listed twice keeps both
// pairs, together at its first position. Dependency sets are acyclic, so
// the order exists.
func DispatchOrder(in *model.Instance, m *model.Assignment) []model.Pair {
	return append(make([]model.Pair, 0, len(m.Pairs)), new(stepArena).dispatchOrder(in, m)...)
}

// dispatchOrder is DispatchOrder over the arena's scratch; the result is
// the arena's. A task of m is stamped base in pairTasks until visited and
// base+1 after; firstPos holds its first position in m and nextPos chains
// its later ones.
func (a *stepArena) dispatchOrder(in *model.Instance, m *model.Assignment) []model.Pair {
	n := len(m.Pairs)
	s := &a.pairTasks
	base := s.reserve(len(in.Tasks), 2)
	a.firstPos = grown(a.firstPos, len(s.tag))
	a.nextPos = grown(a.nextPos, n)
	for i := n - 1; i >= 0; i-- {
		t := m.Pairs[i].Task
		a.nextPos[i] = -1
		if s.index(int(t), base, 1) == 0 {
			a.nextPos[i] = a.firstPos[t]
		}
		s.tag[t] = base
		a.firstPos[t] = int32(i)
	}
	a.ordered = a.ordered[:0]
	for _, p := range m.Pairs {
		a.visitDispatch(in, m, base, p.Task)
	}
	return a.ordered
}

// visitDispatch appends task id's pairs to a.ordered after those of its
// in-assignment dependencies, unless id was visited before.
func (a *stepArena) visitDispatch(in *model.Instance, m *model.Assignment, base uint32, id model.TaskID) {
	s := &a.pairTasks
	if s.tag[id] != base {
		return
	}
	s.tag[id] = base + 1
	for _, dep := range in.Task(id).Deps {
		if s.index(int(dep), base, 2) >= 0 {
			a.visitDispatch(in, m, base, dep)
		}
	}
	for i := a.firstPos[id]; i >= 0; i = a.nextPos[i] {
		a.ordered = append(a.ordered, m.Pairs[i])
	}
}

// stableSortByDesc sorts idxs descending by key, breaking ties by index
// ascending, deterministically.
func stableSortByDesc(idxs []int, key func(int) float64) {
	sort.SliceStable(idxs, func(i, j int) bool {
		ki, kj := key(idxs[i]), key(idxs[j])
		if ki != kj {
			return ki > kj
		}
		return idxs[i] < idxs[j]
	})
}
