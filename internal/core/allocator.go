package core

import (
	"fmt"
	"math/rand"
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
	// Assign computes the batch assignment M_b.
	Assign(b *Batch) *model.Assignment
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

// finishAssignment applies the batch-aware dependency fixpoint filter and
// sorts, so every allocator returns a canonical, constraint-satisfying
// result. Pair feasibility (skill/deadline/distance) is the allocator's
// responsibility — every implementation only ever proposes pairs that passed
// Batch.Feasible.
func finishAssignment(b *Batch, a *model.Assignment) *model.Assignment {
	out := DependencyFixpoint(b, a)
	out.Sort()
	return out
}

// DependencyFixpoint repeatedly removes pairs whose task has a dependency
// that is neither kept in the assignment nor in b.Satisfied, until stable.
// The result satisfies the dependency constraint by construction.
func DependencyFixpoint(b *Batch, a *model.Assignment) *model.Assignment {
	cur := a
	for {
		kept := cur.TaskSet()
		next := model.NewAssignment()
		for _, p := range cur.Pairs {
			t := b.In.Task(p.Task)
			ok := true
			for _, d := range t.Deps {
				if !kept[d] && !b.Satisfied.Has(d) {
					ok = false
					break
				}
			}
			if ok {
				next.Add(p.Worker, p.Task)
			}
		}
		if next.Size() == cur.Size() {
			return next
		}
		cur = next
	}
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
	n := len(m.Pairs)
	// first[t] is t's first position in m; next chains its later ones.
	first := make(map[model.TaskID]int, n)
	next := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		t := m.Pairs[i].Task
		next[i] = -1
		if j, ok := first[t]; ok {
			next[i] = j
		}
		first[t] = i
	}
	visited := make(map[model.TaskID]bool, len(first))
	out := make([]model.Pair, 0, n)
	var visit func(id model.TaskID)
	visit = func(id model.TaskID) {
		if visited[id] {
			return
		}
		visited[id] = true
		for _, dep := range in.Task(id).Deps {
			if _, ok := first[dep]; ok {
				visit(dep)
			}
		}
		for i := first[id]; i >= 0; i = next[i] {
			out = append(out, m.Pairs[i])
		}
	}
	for _, p := range m.Pairs {
		visit(p.Task)
	}
	return out
}

// newRNG returns a deterministic generator for the given seed.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

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
