package core

import (
	"cmp"
	"slices"

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
)

// GreedyOptions configures DASC_Greedy.
type GreedyOptions struct {
	Matcher MatcherKind
}

// maxCandidatesPerTask trims the Hungarian cost matrix to the K cheapest
// free candidate workers per task (plus the feasibility matching's own
// workers, so completeness is never lost).
const maxCandidatesPerTask = 8

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
	return &Greedy{opt: opt}
}

// Name implements Allocator.
func (g *Greedy) Name() string { return NameGreedy }

// DependencyAware implements Allocator.
func (g *Greedy) DependencyAware() bool { return true }

// Assign implements Allocator.
func (g *Greedy) Assign(b *Batch) *model.Assignment {
	taskOf := g.assignIndices(b)
	n := 0
	for _, ti := range taskOf {
		if ti >= 0 {
			n++
		}
	}
	out := newAssignment(n)
	for wi, ti := range taskOf {
		if ti >= 0 {
			out.Add(b.Workers[wi].W.ID, b.Tasks[ti].ID)
		}
	}
	return finishAssignment(b, out)
}

// greedyScratch is DASC_Greedy's working state in the batch's step arena:
// the candidate rows, the raw assignment, the task and worker markers, the
// sets-by-task table, the heap, the requeue set and staff's buffers.
type greedyScratch struct {
	candidates [][]int32
	taskOf     []int32
	assigned   []bool
	free       []bool
	// setsByTask(ti) = byTaskDat[byTaskOff[ti]:byTaskOff[ti+1]] lists the
	// sets containing pending task ti.
	byTaskOff []int32
	byTaskDat []*atSet
	heap      setHeap
	// requeued flags, by anchor, the sets already in requeue.
	requeued []bool
	requeue  []*atSet
	alive    []int

	// staff's buffers. cols maps batch workers to matrix columns: worker
	// wi is column i of the current use when it holds stamp base+i.
	cols    idStamps
	rows    [][]int // the feasibility graph's adjacency rows
	adj     []int   // and their flat backing
	matched []int   // the feasibility graph's columns, by worker
	trimmed []int
	cands   []staffCand
	cost    [][]float64
	costDat []float64
	staff   []int
	bg      matching.Bipartite
	match   matching.Workspace
}

// staffCand is a free candidate worker of one task and its travel time.
type staffCand struct {
	wi   int
	cost float64
}

// assignIndices runs the greedy loop and returns the raw (pre-fixpoint)
// assignment as index pairs: worker index → claimed task index, -1 when the
// worker stays idle. Greedy commits at most one task per worker, so the pair
// form is lossless; DASC_Game's G-G initialisation consumes it directly
// without the Assignment/ID round-trip.
func (g *Greedy) assignIndices(b *Batch) []int32 {
	// Candidate workers per task are stable for the whole batch; only their
	// availability changes. They are read straight from the candidate
	// engine (ascending batch worker indexes, never modified).
	idx := b.Index()
	gs := &b.arena.greedy
	gs.candidates = grown(gs.candidates, len(b.Tasks))
	candidates := gs.candidates
	for ti := range b.Tasks {
		candidates[ti] = idx.CandidateSet(ti)
	}
	return g.commitSets(b, atSets(b, candidates), candidates)
}

// commitSets is Algorithm 1's loop over the given associative sets:
// repeatedly commit the heaviest set that distinct free workers can staff
// completely. It returns the raw assignment in assignIndices' form.
func (g *Greedy) commitSets(b *Batch, sets []*atSet, candidates [][]int32) []int32 {
	gs := &b.arena.greedy
	gs.taskOf = grown(gs.taskOf, len(b.Workers))
	taskOf := gs.taskOf
	for i := range taskOf {
		taskOf[i] = -1
	}
	if len(sets) == 0 {
		return taskOf
	}

	gs.assigned = grown(gs.assigned, len(b.Tasks))
	assignedTask := gs.assigned
	clear(assignedTask)
	gs.free = grown(gs.free, len(b.Workers))
	workerFree := gs.free
	for i := range workerFree {
		workerFree[i] = true
	}
	// setsByTask lists the sets containing each pending task, so committing
	// a task can shrink exactly the affected sets: a count/prefix/fill CSR
	// that keeps each list in set order.
	gs.byTaskOff = grown(gs.byTaskOff, len(b.Tasks)+2)
	off := gs.byTaskOff
	clear(off)
	for _, s := range sets {
		for _, ti := range s.members {
			off[ti+2]++
		}
	}
	for ti := 2; ti < len(off); ti++ {
		off[ti] += off[ti-1]
	}
	gs.byTaskDat = grown(gs.byTaskDat, int(off[len(off)-1]))
	for _, s := range sets {
		for _, ti := range s.members {
			gs.byTaskDat[off[ti+1]] = s
			off[ti+1]++
		}
	}
	setsByTask := func(ti int) []*atSet { return gs.byTaskDat[off[ti]:off[ti+1]] }
	gs.requeued = grown(gs.requeued, len(b.Tasks))
	clear(gs.requeued)

	h := &gs.heap
	h.entries = h.entries[:0]
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
		gs.alive = s.aliveMembers(assignedTask, gs.alive[:0])
		members := gs.alive
		staff, ok := g.staff(b, members, candidates, workerFree)
		if !ok {
			// Blocked with the current worker pool. Workers only get
			// scarcer, so the set can only become assignable again by
			// shrinking — at which point the tasks committed elsewhere
			// re-queue it below.
			continue
		}
		// Commit ⟨tw, tc⟩: record pairs, retire workers and tasks, shrink
		// every set sharing a member and re-queue it. The heap's order is
		// total on (weight, anchor), so the order of the re-queue pushes
		// does not change what pops.
		requeue := gs.requeue[:0]
		for i, ti := range members {
			wi := staff[i]
			taskOf[wi] = int32(ti)
			workerFree[wi] = false
			assignedTask[ti] = true
			for _, other := range setsByTask(ti) {
				if other != s && !gs.requeued[other.anchor] {
					gs.requeued[other.anchor] = true
					requeue = append(requeue, other)
				}
			}
		}
		for _, other := range requeue {
			gs.requeued[other.anchor] = false
			if n := other.recount(b, assignedTask); n > 0 {
				h.push(setEntry{weight: other.weight, set: other})
			}
		}
		gs.requeue = requeue
	}
	return taskOf
}

// staff finds distinct free workers for every task index in members.
// It returns the chosen worker index per member, aligned with members, or
// ok=false when no complete staffing exists. The result is the arena's,
// valid until the next call.
func (g *Greedy) staff(b *Batch, members []int, candidates [][]int32, workerFree []bool) ([]int, bool) {
	gs := &b.arena.greedy
	sc := &gs.cols
	nw := len(b.Workers)
	// Feasibility first: Hopcroft–Karp over the full free-candidate graph.
	// Column space is the union of free candidates, densely renumbered in
	// first-seen order.
	base := sc.reserve(nw, nw)
	cols := gs.matched[:0]
	gs.rows = grown(gs.rows, len(members))
	bg := &gs.bg
	bg.Adj = gs.rows
	adj := gs.adj[:0]
	for row, ti := range members {
		start := len(adj)
		for _, w := range candidates[ti] {
			if !workerFree[w] {
				continue
			}
			ci := sc.index(int(w), base, nw)
			if ci < 0 {
				ci = len(cols)
				sc.tag[w] = base + uint32(ci)
				cols = append(cols, int(w))
			}
			adj = append(adj, ci)
		}
		bg.Adj[row] = adj[start:len(adj):len(adj)]
	}
	gs.adj = adj
	gs.matched = cols
	bg.N = len(cols)
	matchL, size := gs.match.MaxMatchingHK(bg)
	if size != len(members) {
		return nil, false
	}
	staff := grown(gs.staff, len(members))
	gs.staff = staff
	if g.opt.Matcher == MatchFeasible {
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
	// Kept columns are marked base in the table while they are
	// collected, then renumbered base+i in ascending worker order.
	base = sc.reserve(nw, nw)
	trimmed := gs.trimmed[:0]
	keep := func(wi int) {
		if sc.index(wi, base, nw) < 0 {
			sc.tag[wi] = base
			trimmed = append(trimmed, wi)
		}
	}
	for row := range members {
		keep(cols[matchL[row]])
	}
	for _, ti := range members {
		cs := gs.cands[:0]
		for _, w := range candidates[ti] {
			if wi := int(w); workerFree[wi] {
				cs = append(cs, staffCand{wi, idx.TravelCost(wi, ti)})
			}
		}
		// (cost, worker) is a total order, so the result is the one any
		// correct sort gives.
		slices.SortFunc(cs, func(x, y staffCand) int {
			if c := cmp.Compare(x.cost, y.cost); c != 0 {
				return c
			}
			return cmp.Compare(x.wi, y.wi)
		})
		for i := 0; i < len(cs) && i < maxCandidatesPerTask; i++ {
			keep(cs[i].wi)
		}
		gs.cands = cs
	}
	slices.Sort(trimmed)
	gs.trimmed = trimmed
	for i, wi := range trimmed {
		sc.tag[wi] = base + uint32(i)
	}
	gs.cost = grown(gs.cost, len(members))
	gs.costDat = grown(gs.costDat, len(members)*len(trimmed))
	cost := gs.cost
	for row, ti := range members {
		cost[row] = gs.costDat[row*len(trimmed) : (row+1)*len(trimmed) : (row+1)*len(trimmed)]
		for i := range cost[row] {
			cost[row][i] = matching.Forbidden
		}
		for _, w := range candidates[ti] {
			wi := int(w)
			if !workerFree[wi] {
				continue
			}
			// Candidates trimmed out of the kept column set hold a stale
			// stamp; reading it as a column would overwrite an unrelated
			// (possibly infeasible) worker's cost.
			ci := sc.index(wi, base, len(trimmed))
			if ci < 0 {
				continue
			}
			cost[row][ci] = idx.TravelCost(wi, ti)
		}
	}
	assign, _, err := gs.match.Hungarian(cost)
	if err != nil {
		// Should be unreachable (HK proved feasibility and its workers are
		// all kept), but fall back to the feasible matching defensively.
		// matchL is the workspace's, which Hungarian does not touch.
		for row := range members {
			staff[row] = cols[matchL[row]]
		}
		return staff, true
	}
	for row := range members {
		staff[row] = trimmed[assign[row]]
	}
	return staff, true
}
