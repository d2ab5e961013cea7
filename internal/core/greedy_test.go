package core

import (
	"testing"

	"dasc/internal/model"
)

func validateBatchAssignment(t *testing.T, b *Batch, a *model.Assignment) {
	t.Helper()
	workerUsed := map[model.WorkerID]bool{}
	taskUsed := map[model.TaskID]bool{}
	assigned := a.TaskSet()
	for _, p := range a.Pairs {
		if workerUsed[p.Worker] {
			t.Fatalf("worker w%d assigned twice", p.Worker)
		}
		if taskUsed[p.Task] {
			t.Fatalf("task t%d assigned twice", p.Task)
		}
		workerUsed[p.Worker] = true
		taskUsed[p.Task] = true
		// Locate the batch worker and pending task.
		wi := -1
		for i := range b.Workers {
			if b.Workers[i].W.ID == p.Worker {
				wi = i
				break
			}
		}
		ti := b.TaskIndex(p.Task)
		if wi < 0 || ti < 0 {
			t.Fatalf("pair (%d,%d) references non-batch entities", p.Worker, p.Task)
		}
		if !b.Feasible(wi, b.Tasks[ti]) {
			t.Fatalf("infeasible pair (w%d,t%d)", p.Worker, p.Task)
		}
		for _, d := range b.In.Task(p.Task).Deps {
			if !assigned[d] && !b.Satisfied.Has(d) {
				t.Fatalf("task t%d assigned with unmet dependency t%d", p.Task, d)
			}
		}
	}
}

func TestGreedyExample1(t *testing.T) {
	in := model.Example1()
	b := NewStaticBatch(in)
	a := NewGreedy().Assign(b)
	validateBatchAssignment(t, b, a)
	// The paper's dependency-aware allocation finishes 3 tasks (Fig. 1(c)).
	if a.Size() != 3 {
		t.Fatalf("greedy score = %d, want 3 (%v)", a.Size(), a)
	}
	// t1 and t4 must be among the assigned tasks (roots of the two chains).
	ts := a.TaskSet()
	if !ts[0] || !ts[3] {
		t.Errorf("expected roots t1, t4 assigned: %v", a)
	}
}

func TestGreedyHonoursSkillScarcity(t *testing.T) {
	// Two workers: w0 has only ψ0, w1 has ψ0 and ψ1. Tasks: t0 needs ψ0,
	// t1 needs ψ1 and depends on t0. The only 2-task solution assigns
	// w0→t0, w1→t1; the associative set {t0,t1} forces exactly that.
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
			{ID: 1, Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0, 1)},
		},
		Tasks: []model.Task{
			{ID: 0, Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Start: 0, Wait: 100, Requires: 1, Deps: []model.TaskID{0}},
		},
	}
	b := NewStaticBatch(in)
	a := NewGreedy().Assign(b)
	validateBatchAssignment(t, b, a)
	if a.Size() != 2 {
		t.Fatalf("score = %d, want 2 (%v)", a.Size(), a)
	}
	a.Sort()
	if a.Pairs[0] != (model.Pair{Worker: 0, Task: 0}) || a.Pairs[1] != (model.Pair{Worker: 1, Task: 1}) {
		t.Errorf("matching wasted the flexible worker: %v", a)
	}
}

func TestGreedySkipsUnreachableDependency(t *testing.T) {
	// t1 depends on t0, but t0 is not in the batch and not satisfied:
	// t1 must not be assigned.
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{
			{ID: 0, Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
		},
	}
	b := NewBatch(in, []BatchWorker{{
		W: &in.Workers[0], Loc: in.Workers[0].Loc, ReadyAt: 0, DistBudget: 100,
	}}, []*model.Task{&in.Tasks[1]}, nil)
	a := NewGreedy().Assign(b)
	if a.Size() != 0 {
		t.Fatalf("assigned task with absent dependency: %v", a)
	}
	// With the dependency satisfied in an earlier batch it becomes legal.
	b2 := NewBatch(in, b.Workers, b.Tasks, model.TaskFlags{0: true})
	a2 := NewGreedy().Assign(b2)
	if a2.Size() != 1 {
		t.Fatalf("satisfied dependency not honoured: %v", a2)
	}
}

func TestGreedyPrefersLargerSet(t *testing.T) {
	// A chain of 3 tasks and one isolated task; 3 workers. Greedy must take
	// the size-3 associative set first, not strand workers on the single.
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
			{ID: 1, Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
			{ID: 2, Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{
			{ID: 0, Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
			{ID: 2, Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0, 1}},
			{ID: 3, Start: 0, Wait: 100, Requires: 0},
		},
	}
	b := NewStaticBatch(in)
	a := NewGreedy().Assign(b)
	validateBatchAssignment(t, b, a)
	if a.Size() != 3 {
		t.Fatalf("score = %d, want 3", a.Size())
	}
	ts := a.TaskSet()
	if !ts[0] || !ts[1] || !ts[2] {
		t.Errorf("greedy did not commit the chain: %v", a)
	}
}

func TestGreedyMatcherAblationAgreesOnScore(t *testing.T) {
	in := model.Example1()
	b := NewStaticBatch(in)
	hung := NewGreedyOpt(GreedyOptions{Matcher: MatchHungarian}).Assign(b)
	feas := NewGreedyOpt(GreedyOptions{Matcher: MatchFeasible}).Assign(b)
	if hung.Size() != feas.Size() {
		t.Errorf("matcher kinds disagree: hungarian %d, feasible %d", hung.Size(), feas.Size())
	}
	validateBatchAssignment(t, b, feas)
}

func TestGreedyEmptyBatch(t *testing.T) {
	in := &model.Instance{}
	b := NewStaticBatch(in)
	if a := NewGreedy().Assign(b); a.Size() != 0 {
		t.Errorf("empty batch score = %d", a.Size())
	}
}

func TestGreedyDeterministic(t *testing.T) {
	in := model.Example1()
	a1 := NewGreedy().Assign(NewStaticBatch(in))
	a2 := NewGreedy().Assign(NewStaticBatch(in))
	if a1.String() != a2.String() {
		t.Errorf("nondeterministic greedy: %v vs %v", a1, a2)
	}
}
