package sim

import (
	"testing"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// TestOnlineLateArrivingWorker: a worker whose Start falls after the last
// task arrival never appeared on the old task-only timeline, so a task with a
// generous deadline was silently dropped even though the worker could serve
// it. Worker arrivals must be timeline events.
func TestOnlineLateArrivingWorker(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{{
			ID: 0, Loc: geo.Pt(0, 0), Start: 10, Wait: 100, Velocity: 10, MaxDist: 100,
			Skills: model.NewSkillSet(0),
		}},
		Tasks: []model.Task{
			// Arrives at 0, open until 50; serviceable only once the worker
			// appears at 10.
			{ID: 0, Loc: geo.Pt(1, 0), Start: 0, Wait: 50, Requires: 0},
		},
	}
	res, err := RunOnline(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedTasks != 1 {
		t.Fatalf("CompletedTasks = %d, want 1 (late worker never examined): %+v",
			res.CompletedTasks, res)
	}
}

// TestOnlineDrainsWakeupsToFixpoint: a single worker serving the chain
// t0→t1→t2 finishes t1 during the post-timeline drain; t2 only becomes
// assignable at t1's finish time, a wakeup that is itself created while
// draining. The old single-pass drain over a pre-sorted slice missed it and
// dropped the tail of the chain.
func TestOnlineDrainsWakeupsToFixpoint(t *testing.T) {
	w := model.Worker{
		ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Velocity: 10, MaxDist: 100,
		Skills: model.NewSkillSet(0),
	}
	in := &model.Instance{
		Workers: []model.Worker{w},
		Tasks: []model.Task{
			// Colocated chain: travel is zero, service time serialises it.
			{ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
			{ID: 2, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{1}},
		},
	}
	res, err := RunOnline(in, Config{ServiceTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	// t0 at 0, t1 at the finish-1 wakeup, t2 at the finish-2 wakeup pushed
	// during the drain itself.
	if res.CompletedTasks != 3 {
		t.Fatalf("CompletedTasks = %d, want 3 (chain tail dropped in drain): %+v",
			res.CompletedTasks, res)
	}
	if res.WorkerAssignments[0] != 3 {
		t.Errorf("worker 0 served %d tasks, want 3", res.WorkerAssignments[0])
	}
}

// TestOnlineDeepChainSingleWorker stresses the fixpoint with a longer chain:
// every link past the first is assigned at a wakeup created by the previous
// link's assignment.
func TestOnlineDeepChainSingleWorker(t *testing.T) {
	const n = 10
	in := &model.Instance{
		Workers: []model.Worker{{
			ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 1000, Velocity: 10, MaxDist: 1000,
			Skills: model.NewSkillSet(0),
		}},
	}
	for i := 0; i < n; i++ {
		tk := model.Task{ID: model.TaskID(i), Loc: geo.Pt(0, 0), Start: 0, Wait: 1000, Requires: 0}
		if i > 0 {
			tk.Deps = []model.TaskID{model.TaskID(i - 1)}
		}
		in.Tasks = append(in.Tasks, tk)
	}
	res, err := RunOnline(in, Config{ServiceTime: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedTasks != n {
		t.Fatalf("CompletedTasks = %d, want %d", res.CompletedTasks, n)
	}
}

// TestOnlineOneTaskPerWorkerPerPass pins the exclusive constraint in the
// online regime: within one pass at an instant a worker takes at most one
// task, even a worker that finishes at the very instant it is dispatched
// (zero travel, zero service time). Both tasks sit on worker 0, so a rule
// that reused it within the pass would give it both; instead the second
// task goes to worker 1, one unit away, in the same pass.
func TestOnlineOneTaskPerWorkerPerPass(t *testing.T) {
	worker := func(id model.WorkerID, x float64) model.Worker {
		return model.Worker{
			ID: id, Loc: geo.Pt(x, 0), Start: 0, Wait: 100, Velocity: 1, MaxDist: 100,
			Skills: model.NewSkillSet(0),
		}
	}
	in := &model.Instance{
		Workers: []model.Worker{worker(0, 0), worker(1, 1)},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Requires: 0},
		},
	}
	steps := 0
	res, err := RunOnline(in, Config{OnBatch: func(r BatchResult) {
		if steps == 0 && r.Assignment.Size() != 2 {
			t.Errorf("first pass assigned %v, want both tasks", r.Assignment)
		}
		steps++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedTasks != 2 || res.WorkerAssignments[0] != 1 || res.WorkerAssignments[1] != 1 {
		t.Fatalf("completed %d, per worker %v; want one task each", res.CompletedTasks, res.WorkerAssignments)
	}
	if res.TotalTravel != 1 {
		t.Errorf("TotalTravel = %v, want 1 (worker 1's leg)", res.TotalTravel)
	}
}
