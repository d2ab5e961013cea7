package core

import (
	"math/rand"
	"slices"
	"testing"

	"dasc/internal/model"
)

// TestGreedyCandidateTrimmingPreservesScore: trimming the Hungarian
// columns to the maxCandidatesPerTask cheapest free candidates per task must
// never lose a complete staffing (the feasibility matching's own workers
// stay), only possibly travel cost. On every associative set of dense random
// batches, under random availability, staff succeeds exactly when the
// untrimmed oracle does, with distinct free candidates, at a cost no lower
// than the untrimmed optimum.
func TestGreedyCandidateTrimmingPreservesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	trimmed := 0
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 40+rng.Intn(30), 10+rng.Intn(20), 2, true)
		b := NewStaticBatch(in)
		idx := b.Index()
		candidates := make([][]int32, len(b.Tasks))
		for ti := range b.Tasks {
			candidates[ti] = idx.CandidateSet(ti)
		}
		g := NewGreedy()
		for _, s := range atSets(b, nil) {
			free := make([]bool, len(b.Workers))
			for wi := range free {
				free[wi] = rng.Float64() < 0.9
			}
			got, ok := g.staff(b, s.members, candidates, free)
			got = slices.Clone(got)
			want, wantOK := oracleStaff(g, len(b.Workers), b, s.members, candidates, free)
			if ok != wantOK {
				t.Fatalf("trial %d anchor %d: trimmed staffing ok=%v, untrimmed %v", trial, s.anchor, ok, wantOK)
			}
			if !ok {
				continue
			}
			gotCost, wantCost := 0.0, 0.0
			used := make(map[int]bool, len(got))
			for row, ti := range s.members {
				wi := got[row]
				if used[wi] || !free[wi] || !slices.Contains(candidates[ti], int32(wi)) {
					t.Fatalf("trial %d anchor %d: staffing %v is not distinct free candidates", trial, s.anchor, got)
				}
				used[wi] = true
				gotCost += idx.TravelCost(wi, ti)
				wantCost += idx.TravelCost(want[row], ti)
				n := 0
				for _, w := range candidates[ti] {
					if free[w] {
						n++
					}
				}
				if n > maxCandidatesPerTask {
					trimmed++
				}
			}
			if gotCost < wantCost-1e-9 {
				t.Fatalf("trial %d anchor %d: trimmed cost %v below the untrimmed optimum %v", trial, s.anchor, gotCost, wantCost)
			}
		}
	}
	if trimmed == 0 {
		t.Fatal("no task had more free candidates than the trim keeps")
	}
}

// TestGreedyMinimisesTravelWithinCommit: on a two-worker, one-task instance
// the Hungarian staffing must pick the nearer worker.
func TestGreedyMinimisesTravelWithinCommit(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Loc: mustPt(10, 0), Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
			{ID: 1, Loc: mustPt(1, 0), Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{{ID: 0, Start: 0, Wait: 100, Requires: 0}},
	}
	b := NewStaticBatch(in)
	a := NewGreedy().Assign(b)
	if a.Size() != 1 || a.Pairs[0].Worker != 1 {
		t.Errorf("greedy picked the far worker: %v", a)
	}
	// The feasibility-only matcher may pick either; it must still be valid.
	f := NewGreedyOpt(GreedyOptions{Matcher: MatchFeasible}).Assign(b)
	validateBatchAssignment(t, b, f)
}

func TestGameMaxRoundsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	in := randomInstance(rng, 30, 10, 2, false) // heavy contention
	b := NewStaticBatch(in)
	g := NewGame(GameOptions{Seed: 1, MaxRounds: 1})
	a, trace := g.AssignTraced(b)
	if trace.Rounds != 1 {
		t.Errorf("Rounds = %d, want capped 1", trace.Rounds)
	}
	validateBatchAssignment(t, b, a) // even a truncated run must be valid
	if len(trace.UpdateRatios) != 1 {
		t.Errorf("UpdateRatios = %v", trace.UpdateRatios)
	}
}

func TestGameTraceFields(t *testing.T) {
	b := NewStaticBatch(model.Example1())
	_, trace := NewGame(GameOptions{Seed: 2}).AssignTraced(b)
	if trace.FinalUtility <= 0 {
		t.Errorf("FinalUtility = %v", trace.FinalUtility)
	}
	if !trace.Converged || trace.Rounds == 0 {
		t.Errorf("trace = %+v", trace)
	}
	// Ratios end at (or below) the threshold.
	last := trace.UpdateRatios[len(trace.UpdateRatios)-1]
	if last > 0 {
		t.Errorf("strict game ended with ratio %v", last)
	}
}

func TestStableSortByDesc(t *testing.T) {
	idxs := []int{0, 1, 2, 3}
	key := map[int]float64{0: 1, 1: 3, 2: 3, 3: 2}
	stableSortByDesc(idxs, func(i int) float64 { return key[i] })
	want := []int{1, 2, 3, 0} // ties (1,2) keep index order
	for i := range want {
		if idxs[i] != want[i] {
			t.Fatalf("order = %v", idxs)
		}
	}
}

func TestComputeStatsOnCycle(t *testing.T) {
	in := model.Example1()
	in.Tasks[0].Deps = []model.TaskID{2}
	st := in.ComputeStats()
	if st.CriticalPathLength != 0 {
		t.Errorf("cyclic CriticalPathLength = %d, want 0", st.CriticalPathLength)
	}
	if st.Workers != 3 || st.Tasks != 5 {
		t.Errorf("stats = %+v", st)
	}
}

// TestBaselineRawAssignmentsAreFeasiblePairs: even though the baselines skip
// the dependency constraint, every raw pair must individually satisfy skill,
// deadline and distance.
func TestBaselineRawAssignmentsAreFeasiblePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 8, 10, 3, true)
		b := NewStaticBatch(in)
		for _, alloc := range []Allocator{NewClosest(), NewRandom(int64(trial))} {
			raw := alloc.Assign(b)
			workerSeen := map[model.WorkerID]bool{}
			taskSeen := map[model.TaskID]bool{}
			for _, p := range raw.Pairs {
				if workerSeen[p.Worker] || taskSeen[p.Task] {
					t.Fatalf("%s violated exclusivity", alloc.Name())
				}
				workerSeen[p.Worker] = true
				taskSeen[p.Task] = true
				ti := b.TaskIndex(p.Task)
				wi := -1
				for i := range b.Workers {
					if b.Workers[i].W.ID == p.Worker {
						wi = i
						break
					}
				}
				if !b.Feasible(wi, b.Tasks[ti]) {
					t.Fatalf("%s produced infeasible pair (%d,%d)", alloc.Name(), p.Worker, p.Task)
				}
			}
		}
	}
}
