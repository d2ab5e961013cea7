package core

import (
	"math/rand"
	"testing"

	"dasc/internal/model"
)

func TestExactDPExample1(t *testing.T) {
	b := NewStaticBatch(model.Example1())
	dp := NewExactDP()
	a, ok := dp.AssignExact(b)
	if !ok {
		t.Fatal("tiny instance over the limit")
	}
	validateBatchAssignment(t, b, a)
	if a.Size() != 3 {
		t.Fatalf("ExactDP score = %d, want 3", a.Size())
	}
	if dp.Name() != "ExactDP" {
		t.Errorf("Name = %q", dp.Name())
	}
}

// TestExactDPMatchesDFS: two independent exact solvers must agree on the
// optimum for random instances.
func TestExactDPMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 2+rng.Intn(6), 2+rng.Intn(9), 3, true)
		b := NewStaticBatch(in)
		dfs := NewDFS(DFSOptions{})
		optDFS := dfs.Assign(b).Size()
		if !dfs.Exact() {
			t.Fatalf("trial %d: DFS truncated", trial)
		}
		dp := NewExactDP()
		a, ok := dp.AssignExact(b)
		if !ok {
			t.Fatalf("trial %d: DP over limit", trial)
		}
		validateBatchAssignment(t, b, a)
		if a.Size() != optDFS {
			t.Fatalf("trial %d: DP %d != DFS %d", trial, a.Size(), optDFS)
		}
	}
}

func TestExactDPWithSatisfiedAndDeadDeps(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{
			{ID: 0, Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
		},
	}
	// Only t1 pending; t0 satisfied earlier → assignable.
	b := NewBatch(in,
		[]BatchWorker{{W: &in.Workers[0], Loc: in.Workers[0].Loc, ReadyAt: 0, DistBudget: 100}},
		[]*model.Task{&in.Tasks[1]},
		model.TaskFlags{0: true})
	a, ok := NewExactDP().AssignExact(b)
	if !ok || a.Size() != 1 {
		t.Fatalf("satisfied dep: %v ok=%v", a, ok)
	}
	// Only t1 pending; t0 absent and unsatisfied → dead.
	b2 := NewBatch(in, b.Workers, b.Tasks, nil)
	a2, ok := NewExactDP().AssignExact(b2)
	if !ok || a2.Size() != 0 {
		t.Fatalf("dead dep assigned: %v", a2)
	}
}

func TestExactDPOverLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	in := randomInstance(rng, 3, 6, 2, false)
	b := NewStaticBatch(in)
	dp := &ExactDP{MaxTasks: 4}
	if _, ok := dp.AssignExact(b); ok {
		t.Error("limit not enforced")
	}
	if a := dp.Assign(b); a.Size() != 0 {
		t.Error("over-limit Assign should be empty")
	}
}

func TestExactDPEmptyBatch(t *testing.T) {
	b := NewStaticBatch(&model.Instance{})
	a, ok := NewExactDP().AssignExact(b)
	if !ok || a.Size() != 0 {
		t.Errorf("empty batch: %v ok=%v", a, ok)
	}
}
