package core

import (
	"math"
	"sort"

	"dasc/internal/matching"
	"dasc/internal/model"
)

// MatcherKind selects how DASC_Greedy staffs an associative task set once
// the Hopcroft–Karp feasibility check passes.
type MatcherKind int

const (
	// MatchHungarian picks the minimum-total-travel-time complete staffing
	// with the Hungarian algorithm — the paper's Algorithm 1 line 5.
	MatchHungarian MatcherKind = iota
	// MatchFeasible keeps the arbitrary complete matching Hopcroft–Karp
	// found. Cheaper; ablated in the benchmarks.
	MatchFeasible
	// MatchAuction staffs with Bertsekas' auction algorithm instead of
	// Hungarian — ε-optimal travel cost, same score; an independently
	// implemented cross-check and ablation point.
	MatchAuction
)

// GreedyOptions configures DASC_Greedy.
type GreedyOptions struct {
	Matcher MatcherKind
	// MaxCandidatesPerTask trims the Hungarian cost matrix to the K
	// cheapest candidate workers per task (plus the feasibility matching's
	// own workers, so completeness is never lost). Zero means 8.
	MaxCandidatesPerTask int
}

// Greedy implements DASC_Greedy (Algorithm 1): build the associative task
// sets, then repeatedly commit the heaviest set that can be completely
// staffed by distinct available workers, updating the remaining sets and the
// worker pool. With the paper's unit task weights "heaviest" is "largest";
// with the weighted extension the selection key is the summed task weight.
// Per-batch approximation ratio 1 − 1/e (Theorem III.2).
type Greedy struct {
	opt GreedyOptions
}

// NewGreedy returns a DASC_Greedy allocator with default options.
func NewGreedy() *Greedy { return NewGreedyOpt(GreedyOptions{}) }

// NewGreedyOpt returns a DASC_Greedy allocator with explicit options.
func NewGreedyOpt(opt GreedyOptions) *Greedy {
	if opt.MaxCandidatesPerTask <= 0 {
		opt.MaxCandidatesPerTask = 8
	}
	return &Greedy{opt: opt}
}

// Name implements Allocator.
func (g *Greedy) Name() string { return NameGreedy }

// Assign implements Allocator.
func (g *Greedy) Assign(b *Batch) *model.Assignment {
	out := model.NewAssignment()
	for wi, ti := range g.assignIndices(b) {
		if ti >= 0 {
			out.Add(b.Workers[wi].W.ID, b.Tasks[ti].ID)
		}
	}
	return finishAssignment(b, out)
}

// assignIndices runs the greedy loop and returns the raw (pre-fixpoint)
// assignment as index pairs: worker index → claimed task index, -1 when the
// worker stays idle. Greedy commits at most one task per worker, so the pair
// form is lossless; DASC_Game's G-G initialisation consumes it directly
// without the Assignment/ID round-trip.
func (g *Greedy) assignIndices(b *Batch) []int32 {
	taskOf := make([]int32, len(b.Workers))
	for i := range taskOf {
		taskOf[i] = -1
	}
	sets := atSets(b)
	if len(sets) == 0 {
		return taskOf
	}

	assignedTask := make([]bool, len(b.Tasks))
	workerFree := make([]bool, len(b.Workers))
	for i := range workerFree {
		workerFree[i] = true
	}
	// setsByTask[ti] lists the sets containing pending task ti, so committing
	// a task can shrink exactly the affected sets.
	setsByTask := make([][]*atSet, len(b.Tasks))
	for _, s := range sets {
		for _, ti := range s.members {
			setsByTask[ti] = append(setsByTask[ti], s)
		}
	}
	// Candidate workers per task are stable for the whole batch; only their
	// availability changes. They are read straight from the candidate
	// engine (ascending batch worker indexes, never modified).
	idx := b.Index()
	candidates := make([][]int32, len(b.Tasks))
	for ti := range b.Tasks {
		candidates[ti] = idx.CandidateSet(ti)
	}
	cols := newColScratch(len(b.Workers))

	h := &setHeap{}
	for _, s := range sets {
		h.push(setEntry{weight: s.weight, set: s})
	}

	for {
		e, ok := h.pop()
		if !ok {
			break
		}
		s := e.set
		cur := s.recount(b, assignedTask)
		if cur == 0 {
			continue // fully assigned through other sets
		}
		if s.weight != e.weight {
			// Stale entry: the set shrank since it was pushed. Re-queue at
			// its true weight so the largest-first order stays correct.
			h.push(setEntry{weight: s.weight, set: s})
			continue
		}
		members := s.aliveMembers(assignedTask)
		staff, ok := g.staff(b, members, candidates, workerFree, cols)
		if !ok {
			// Blocked with the current worker pool. Workers only get
			// scarcer, so the set can only become assignable again by
			// shrinking — at which point the tasks committed elsewhere
			// re-queue it below.
			continue
		}
		// Commit ⟨tw, tc⟩: record pairs, retire workers and tasks, shrink
		// every set sharing a member and re-queue it.
		requeue := make(map[*atSet]bool)
		for i, ti := range members {
			wi := staff[i]
			taskOf[wi] = int32(ti)
			workerFree[wi] = false
			assignedTask[ti] = true
			for _, other := range setsByTask[ti] {
				if other != s {
					requeue[other] = true
				}
			}
		}
		for other := range requeue {
			if n := other.recount(b, assignedTask); n > 0 {
				h.push(setEntry{weight: other.weight, set: other})
			}
		}
	}
	return taskOf
}

// colScratch maps batch workers to matrix columns for staff: one []int32
// over len(b.Workers), reused across the staff calls of one assignIndices
// run. Every use reserves a fresh range [base, base+len) of values, so
// col[wi] names column col[wi]-base of the current use exactly when it is
// at least base; nothing is cleared between uses. rows and adj hold the
// feasibility graph's adjacency rows and their flat backing, overwritten by
// each call.
type colScratch struct {
	col  []int32
	next int32 // base of the next use
	rows [][]int
	adj  []int
}

func newColScratch(workers int) *colScratch {
	return &colScratch{col: make([]int32, workers), next: 1}
}

// begin starts a new use and returns its base.
func (c *colScratch) begin() int32 {
	n := int32(len(c.col))
	if c.next > math.MaxInt32-n {
		clear(c.col)
		c.next = 1
	}
	base := c.next
	c.next += n
	return base
}

// staff finds distinct free workers for every task index in members.
// It returns the chosen worker index per member, aligned with members, or
// ok=false when no complete staffing exists. sc is the run's column
// scratch.
func (g *Greedy) staff(b *Batch, members []int, candidates [][]int32, workerFree []bool, sc *colScratch) ([]int, bool) {
	// Feasibility first: Hopcroft–Karp over the full free-candidate graph.
	// Column space is the union of free candidates, densely renumbered in
	// first-seen order.
	base := sc.begin()
	var cols []int
	sc.rows = grown(sc.rows, len(members))
	bg := &matching.Bipartite{Adj: sc.rows}
	adj := sc.adj[:0]
	for row, ti := range members {
		start := len(adj)
		for _, w := range candidates[ti] {
			if !workerFree[w] {
				continue
			}
			ci := sc.col[w] - base
			if ci < 0 {
				ci = int32(len(cols))
				sc.col[w] = base + ci
				cols = append(cols, int(w))
			}
			adj = append(adj, int(ci))
		}
		bg.Adj[row] = adj[start:len(adj):len(adj)]
	}
	sc.adj = adj
	bg.N = len(cols)
	matchL, size := bg.MaxMatchingHK()
	if size != len(members) {
		return nil, false
	}
	if g.opt.Matcher == MatchFeasible {
		staff := make([]int, len(members))
		for row := range members {
			staff[row] = cols[matchL[row]]
		}
		return staff, true
	}

	// Cost-optimal staffing: Hungarian over a trimmed column set — the K
	// cheapest free candidates per task plus the HK matching's own workers,
	// which keeps a complete matching representable. Travel times come from
	// the batch index's memo, not fresh dist() calls.
	idx := b.Index()
	// Kept columns are marked base in the scratch while they are
	// collected, then renumbered base+i in ascending worker order.
	base = sc.begin()
	var trimmed []int
	keep := func(wi int) {
		if sc.col[wi] < base {
			sc.col[wi] = base
			trimmed = append(trimmed, wi)
		}
	}
	for row := range members {
		keep(cols[matchL[row]])
	}
	type cand struct {
		wi   int
		cost float64
	}
	for _, ti := range members {
		var cs []cand
		for _, w := range candidates[ti] {
			if wi := int(w); workerFree[wi] {
				cs = append(cs, cand{wi, idx.TravelCost(wi, ti)})
			}
		}
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].cost != cs[j].cost {
				return cs[i].cost < cs[j].cost
			}
			return cs[i].wi < cs[j].wi
		})
		for i := 0; i < len(cs) && i < g.opt.MaxCandidatesPerTask; i++ {
			keep(cs[i].wi)
		}
	}
	sort.Ints(trimmed)
	for i, wi := range trimmed {
		sc.col[wi] = base + int32(i)
	}
	cost := make([][]float64, len(members))
	for row, ti := range members {
		cost[row] = make([]float64, len(trimmed))
		for i := range cost[row] {
			cost[row][i] = matching.Forbidden
		}
		for _, w := range candidates[ti] {
			wi := int(w)
			if !workerFree[wi] {
				continue
			}
			// Candidates trimmed out of the kept column set hold a stale
			// value below base; reading it as a column would overwrite an
			// unrelated (possibly infeasible) worker's cost.
			ci := sc.col[wi] - base
			if ci < 0 {
				continue
			}
			cost[row][ci] = idx.TravelCost(wi, ti)
		}
	}
	var (
		assign []int
		err    error
	)
	if g.opt.Matcher == MatchAuction {
		assign, _, err = matching.Auction(cost, 0)
	} else {
		assign, _, err = matching.Hungarian(cost)
	}
	if err != nil {
		// Should be unreachable (HK proved feasibility and its workers are
		// all kept), but fall back to the feasible matching defensively.
		staff := make([]int, len(members))
		for row := range members {
			staff[row] = cols[matchL[row]]
		}
		return staff, true
	}
	staff := make([]int, len(members))
	for row := range members {
		staff[row] = trimmed[assign[row]]
	}
	return staff, true
}
