package core

import "dasc/internal/model"

// DFSOptions configures the exact search.
type DFSOptions struct {
	// MaxNodes caps the number of search-tree nodes expanded; zero means
	// 50 million, enough for the paper's small-scale setting. When the cap
	// is hit the best assignment found so far is returned and Exact()
	// reports false.
	MaxNodes int64
}

// DFS is the paper's exact baseline for small instances (Table VI): a
// depth-first branch-and-bound over per-worker task choices. Each level of
// the search tree is one worker; its children are the worker's feasible
// tasks plus idling. The score of a leaf is the weight of the heaviest
// dependency-consistent sub-assignment, so the search maximises the true
// DA-SC objective (task count under the paper's unit weights).
type DFS struct {
	opt   DFSOptions
	exact bool
}

// NewDFS returns an exact DFS allocator.
func NewDFS(opt DFSOptions) *DFS {
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 50_000_000
	}
	return &DFS{opt: opt}
}

// Name implements Allocator.
func (d *DFS) Name() string { return NameDFS }

// Exact reports whether the last Assign call explored the full search space
// (true) or was truncated by MaxNodes (false).
func (d *DFS) Exact() bool { return d.exact }

// Assign implements Allocator.
func (d *DFS) Assign(b *Batch) *model.Assignment {
	strategies := b.StrategySets()
	// Search workers with the fewest options first: small branching near the
	// root makes the bound bite earlier.
	order := make([]int, 0, len(b.Workers))
	for wi := range b.Workers {
		if len(strategies[wi]) > 0 {
			order = append(order, wi)
		}
	}
	stableSortByDesc(order, func(wi int) float64 { return -float64(len(strategies[wi])) })

	maxW := 0.0
	for _, t := range b.Tasks {
		if w := t.EffWeight(); w > maxW {
			maxW = w
		}
	}
	s := &dfsSearch{
		b:          b,
		strategies: strategies,
		order:      order,
		claimed:    make([]bool, len(b.Tasks)),
		choice:     make([]int, len(order)),
		budget:     d.opt.MaxNodes,
		maxWeight:  maxW,
		bestScore:  -1,
	}
	for i := range s.choice {
		s.choice[i] = -1
	}
	s.bestChoice = append([]int(nil), s.choice...)
	s.rec(0, 0)
	d.exact = s.budget > 0

	out := model.NewAssignment()
	for i, wi := range order {
		if ti := s.bestChoice[i]; ti >= 0 {
			out.Add(b.Workers[wi].W.ID, b.Tasks[ti].ID)
		}
	}
	return finishAssignment(b, out)
}

type dfsSearch struct {
	b          *Batch
	strategies [][]int
	order      []int // worker indexes in search order
	claimed    []bool
	choice     []int // current task index per search level, -1 = idle
	bestChoice []int
	bestScore  float64
	maxWeight  float64 // heaviest task weight, for the upper bound
	budget     int64
}

// rec explores level i with `picked` summed weight claimed so far.
func (s *dfsSearch) rec(i int, picked float64) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	// Upper bound: every remaining worker claims a heaviest task and all
	// claims turn out dependency-consistent.
	if picked+float64(len(s.order)-i)*s.maxWeight <= s.bestScore {
		return
	}
	if i == len(s.order) {
		if score := s.leafScore(); score > s.bestScore {
			s.bestScore = score
			s.bestChoice = append([]int(nil), s.choice...)
		}
		return
	}
	wi := s.order[i]
	for _, ti := range s.strategies[wi] {
		if s.claimed[ti] {
			continue
		}
		s.claimed[ti] = true
		s.choice[i] = ti
		s.rec(i+1, picked+s.b.Tasks[ti].EffWeight())
		s.claimed[ti] = false
		s.choice[i] = -1
	}
	// Idle branch.
	s.rec(i+1, picked)
}

// leafScore computes the weight of the heaviest dependency-consistent subset
// of the current claims via the fixpoint filter.
func (s *dfsSearch) leafScore() float64 {
	kept := make(map[model.TaskID]bool)
	for _, ti := range s.choice {
		if ti >= 0 {
			kept[s.b.Tasks[ti].ID] = true
		}
	}
	for {
		removed := false
		for id := range kept {
			t := s.b.In.Task(id)
			for _, dep := range t.Deps {
				if !kept[dep] && !s.b.Satisfied.Has(dep) {
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
	var sum float64
	for id := range kept {
		sum += s.b.In.Task(id).EffWeight()
	}
	return sum
}
