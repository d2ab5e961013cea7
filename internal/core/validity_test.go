package core

import (
	"math/rand"
	"testing"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// TestGreedyStaffTrimmedCandidateRegression is the regression for the
// Hungarian cost-matrix corruption: the fill did cost[row][colIdx[wi]] for
// every free candidate, but colIdx only held the kept (top-K + HK-matched)
// columns — a trimmed-out candidate's missing key resolved to column 0 and
// silently overwrote its cost, which let an infeasible pair through
// finishAssignment's dependency-only filter or priced the optimum out.
//
// Geometry (velocity 1, so travel time = distance): t0 at (0,0) requiring
// skill 0, t1 at (3,0) requiring skill 1 and depending on t0, so both form
// one associative set staffed together. Worker w0 (1,0) holds {0}, w1 (2,0)
// holds {0,1}, and w2..w9 at (9,0), (10,0) … (16,0) hold {0,1}: t0 has 10
// free candidates and t1 has 9, more than the maxCandidatesPerTask = 8 the
// staffing keeps, so the farthest are trimmed from the kept columns. With
// the corruption their writes land on w0's column 0, and the staffing
// misses the exhaustive optimum ⟨t0→w0, t1→w1⟩ at cost 2.
func TestGreedyStaffTrimmedCandidateRegression(t *testing.T) {
	in := &model.Instance{
		SkillUniverse: 2,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(1, 0), Start: 0, Wait: 100, Velocity: 1, MaxDist: 20, Skills: model.NewSkillSet(0)},
			{ID: 1, Loc: geo.Pt(2, 0), Start: 0, Wait: 100, Velocity: 1, MaxDist: 20, Skills: model.NewSkillSet(0, 1)},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Loc: geo.Pt(3, 0), Start: 0, Wait: 100, Requires: 1, Deps: []model.TaskID{0}},
		},
	}
	for i := 0; i < 8; i++ {
		in.Workers = append(in.Workers, model.Worker{
			ID: model.WorkerID(2 + i), Loc: geo.Pt(float64(9+i), 0), Start: 0, Wait: 100,
			Velocity: 1, MaxDist: 20, Skills: model.NewSkillSet(0, 1),
		})
	}
	b := NewStaticBatch(in)
	a := NewGreedy().Assign(b)

	if err := a.Validate(in, model.ValidationOptions{}); err != nil {
		t.Fatalf("corrupted staffing produced an invalid assignment: %v", err)
	}
	if a.Size() != 2 {
		t.Fatalf("assigned %d pairs, want 2: %v", a.Size(), a)
	}
	got := 0.0
	for _, p := range a.Pairs {
		wi := b.WorkerIndex(p.Worker)
		got += b.TravelCost(wi, in.Task(p.Task))
	}
	// Exhaustive optimum over every complete feasible staffing of {t0, t1}
	// with distinct workers.
	best := -1.0
	c0 := b.CandidateWorkers(&in.Tasks[0])
	c1 := b.CandidateWorkers(&in.Tasks[1])
	for _, wa := range c0 {
		for _, wb := range c1 {
			if wa == wb {
				continue
			}
			total := b.TravelCost(wa, &in.Tasks[0]) + b.TravelCost(wb, &in.Tasks[1])
			if best < 0 || total < best {
				best = total
			}
		}
	}
	if best < 0 {
		t.Fatal("no complete staffing exists — broken test setup")
	}
	if got != best {
		t.Fatalf("staffing travel cost %v, exhaustive optimum %v (pairs %v)", got, best, a)
	}
}

// allocatorsUnderTest enumerates every allocator configuration the validity
// property must hold for: Greedy in both matcher modes,
// the three game variants, and the two oblivious baselines. DFS is appended
// only when small is true — it is exact search, exponential in the worker
// count.
func allocatorsUnderTest(seed int64, small bool) []Allocator {
	allocs := []Allocator{
		NewGreedyOpt(GreedyOptions{Matcher: MatchHungarian}),
		NewGreedyOpt(GreedyOptions{Matcher: MatchFeasible}),
		NewGame(GameOptions{Seed: seed}),
		NewGame(GameOptions{Seed: seed, Threshold: 0.05}),
		NewGame(GameOptions{Seed: seed, GreedyInit: true}),
		NewClosest(),
		NewRandom(seed),
	}
	if small {
		allocs = append(allocs, NewDFS(DFSOptions{MaxNodes: 200_000}))
	}
	return allocs
}

// TestAllAllocatorsProduceValidAssignments is the cross-allocator validity
// property: over randomized instances, every allocator's dependency-filtered
// output must pass Assignment.Validate — skill, deadline/distance, exclusive
// and dependency constraints. This is the generic harness for the
// zero-value-map bug class: the greedy staffing corruption produced pairs
// violating the skill constraint, which Validate catches on any instance
// where the trim bites.
func TestAllAllocatorsProduceValidAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	for trial := 0; trial < 12; trial++ {
		small := trial%3 == 0
		var in *model.Instance
		if small {
			in = randomInstance(rng, 2+rng.Intn(4), 2+rng.Intn(5), 3, true)
		} else {
			in = randomInstance(rng, 8+rng.Intn(15), 8+rng.Intn(20), 4, true)
		}
		b := NewStaticBatch(in)
		for ai, alloc := range allocatorsUnderTest(int64(trial), small) {
			a := DependencyFixpoint(b, alloc.Assign(b))
			if err := a.Validate(in, model.ValidationOptions{}); err != nil {
				t.Fatalf("trial %d allocator %d (%s): %v", trial, ai, alloc.Name(), err)
			}
		}
	}
}

// TestAllAllocatorsValidOnMidSimBatches runs the same property over
// mid-simulation batches (moved workers, advanced clocks, spent budgets),
// where static Validate does not apply; the batch-aware checker asserts
// feasibility from the workers' current states.
func TestAllAllocatorsValidOnMidSimBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for trial := 0; trial < 8; trial++ {
		in := randomInstance(rng, 8+rng.Intn(12), 10+rng.Intn(15), 4, true)
		b := midSimBatch(in, rng)
		for _, alloc := range allocatorsUnderTest(int64(trial), false) {
			a := DependencyFixpoint(b, alloc.Assign(b))
			validateBatchAssignment(t, b, a)
		}
	}
}
