package core

import (
	"math/rand"
	"slices"
	"testing"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// checkPruneExact runs the greedy loop on b twice, over every associative
// set and over the staffable ones atSets builds from the candidates, under
// both matchers, and fails unless both runs commit the same pairs. It returns the number of sets the
// prune dropped and how many of those had an anchor with a candidate.
func checkPruneExact(t *testing.T, name string, b *Batch) (pruned, reachableAnchors int) {
	t.Helper()
	candidates := make([][]int32, len(b.Tasks))
	for ti := range b.Tasks {
		candidates[ti] = b.Index().CandidateSet(ti)
	}
	for _, s := range atSets(b, nil) {
		if slices.ContainsFunc(s.members, func(ti int) bool { return len(candidates[ti]) == 0 }) {
			pruned++
			if len(candidates[s.anchor]) > 0 {
				reachableAnchors++
			}
		}
	}
	if got := len(atSets(b, candidates)); got != len(atSets(b, nil))-pruned {
		t.Fatalf("%s: prune kept %d sets, want %d", name, got, len(atSets(b, nil))-pruned)
	}
	for _, m := range []MatcherKind{MatchHungarian, MatchFeasible} {
		g := NewGreedyOpt(GreedyOptions{Matcher: m})
		// The loop's result is the batch arena's: keep a copy before the
		// second run reuses it.
		want := slices.Clone(g.commitSets(b, atSets(b, nil), candidates))
		got := g.commitSets(b, atSets(b, candidates), candidates)
		if !slices.Equal(got, want) {
			t.Fatalf("%s matcher %d: pruned loop %v, unpruned %v", name, m, got, want)
		}
	}
	return pruned, reachableAnchors
}

// TestGreedyPruneIsExact pins the staffable prune: dropping the associative
// sets with a candidate-less member must not change a single commit of
// Algorithm 1's loop. Random batches carry forced candidate-less tasks (one
// beyond every worker's distance budget, one needing a skill no worker has)
// and make a later task depend on one of them.
func TestGreedyPruneIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1901))
	pruned, reachable := 0, 0
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 4+rng.Intn(20), 6+rng.Intn(25), 3, true)
		n := len(in.Tasks)
		far, lone := rng.Intn(n/2), rng.Intn(n/2)
		in.Tasks[far].Loc = geo.Pt(5, 5)
		in.Tasks[lone].Requires = model.Skill(in.SkillUniverse)
		in.SkillUniverse++
		// A later task inherits the unreachable task and its closure as
		// dependencies, keeping dependency lists closed and duplicate-free.
		dead := []int{far, lone}[trial%2]
		later := &in.Tasks[n/2+rng.Intn(n-n/2)]
		for _, d := range append([]model.TaskID{model.TaskID(dead)}, in.Tasks[dead].Deps...) {
			if !slices.Contains(later.Deps, d) {
				later.Deps = append(later.Deps, d)
			}
		}
		p, r := checkPruneExact(t, "random", NewStaticBatch(in))
		pruned += p
		reachable += r
	}
	if pruned == 0 || reachable == 0 {
		t.Fatalf("prune never bit: %d sets pruned, %d with a reachable anchor", pruned, reachable)
	}
}

// TestGreedyPruneIsExactFig10Max runs the same check on a mid-run batch of
// fig10's largest point, staffed by the workers on duty at that time at
// their declared locations and budgets.
func TestGreedyPruneIsExactFig10Max(t *testing.T) {
	fb := fig10MaxBatch(t)
	const now = 40.0
	var workers []BatchWorker
	for i := range fb.In.Workers {
		w := &fb.In.Workers[i]
		if w.Start <= now && now <= w.Expiry() {
			workers = append(workers, BatchWorker{W: w, Loc: w.Loc, ReadyAt: now, DistBudget: w.MaxDist})
		}
	}
	b := NewBatch(fb.In, workers, fb.Tasks, fb.Satisfied)
	pruned, _ := checkPruneExact(t, "fig10-max", b)
	if pruned == 0 {
		t.Fatalf("no set pruned on the fig10-max batch (%d workers, %d tasks)", len(workers), len(b.Tasks))
	}
	t.Logf("fig10-max batch: %d workers, %d tasks, %d sets pruned", len(workers), len(b.Tasks), pruned)
}
