package core

import (
	"fmt"
	"math"

	"dasc/internal/geo"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// KernelConfig configures a Kernel.
type KernelConfig struct {
	// Allocator decides each batch's assignment. Required.
	Allocator Allocator
	// ServiceTime is how long conducting a task takes once the worker is on
	// site and the dependencies are finished.
	ServiceTime float64
	// VerifyEngineCache cross-checks every batch's candidate engine against
	// the brute-force feasibility scan (Batch.VerifyIndex) and fails the
	// step on divergence. The name predates the engine's from-scratch build.
	VerifyEngineCache bool
	// VerifyGameWorklist cross-checks a DASC_Game allocator's worklist
	// engine against the naive sweep every batch and fails the step on
	// divergence. Ignored for non-game allocators.
	VerifyGameWorklist bool
}

// Kernel is the batch process (Section II-D) that the simulator and the
// server both run: each Step builds the batch population, builds the
// batch's candidate engine from scratch, allocates, keeps the
// dependency-valid pairs and dispatches every pair. The kernel owns
// everything that outlives a batch: each worker's dispatch state, the
// per-task books (assigned, botched, finish times) and the population. For a
// dependency-aware allocator the population also retires the tasks that
// can never be validly assigned (Kernel.population).
//
// Workers and tasks live in append-only registries indexed by their IDs
// (model.Instance.Validate): Step reads them through the instance it is
// given, which may have grown since the previous step. Batch time must never
// go backwards.
//
// Every per-batch buffer lives in the kernel's step arena, which each Step
// reuses, so a warm kernel's step allocates only what it returns.
type Kernel struct {
	cfg     KernelConfig
	pop     Population
	holders skillHolders // the registered workers by skill
	arena   stepArena

	workers []WorkerState
	// satisfied flags the validly assigned tasks; every batch reads it as
	// Batch.Satisfied. assignedTo and finishAt hold the last valid
	// dispatch's worker and finish time of each such task.
	satisfied  model.TaskFlags
	assignedTo []model.WorkerID
	finishAt   []float64
	// botched flags the tasks consumed by a dependency-violating dispatch.
	botched model.TaskFlags
	// gone flags the tasks the population dropped unassigned: botched,
	// overdue, or retired because a dependency of theirs is gone. None of
	// them is ever assigned, so neither is any task that depends on one.
	// It is derived from the other books as the walk drops tasks, so a
	// restored kernel rebuilds it on its first step.
	gone model.TaskFlags
}

// WorkerState is a worker's dispatch state between batches.
type WorkerState struct {
	Loc       geo.Point
	BusyUntil float64
	DistUsed  float64
	Done      int // dispatches, valid or not
}

// TaskBook is what the kernel records about one task.
type TaskBook struct {
	Assigned bool
	Botched  bool
	Worker   model.WorkerID // last valid dispatch's worker, when Assigned
	FinishAt float64        // last valid dispatch's finish, when Assigned
}

// Dispatch is one executed pair: the worker travelled Dist to the task,
// started service at ServiceStart (arrival, or its dependencies' finish if
// later) and is busy until Finish.
type Dispatch struct {
	Pair         model.Pair
	Dist         float64
	ServiceStart float64
	Finish       float64
	// Valid reports that the pair survived the dependency fixpoint; an
	// invalid pair still executes but botches its task.
	Valid bool
	// Again reports a valid dispatch of a task that was already assigned (a
	// misbehaving allocator dispatched it twice).
	Again bool
}

// StepResult is what one batch produced.
type StepResult struct {
	Workers int // active workers presented to the allocator
	Tasks   int // pending tasks presented to the allocator
	// Raw is the allocator's assignment without pairs naming workers outside
	// the batch or tasks outside the instance; Valid is its dependency-valid
	// subset. Both are nil when the batch had no workers or no tasks.
	Raw   *model.Assignment
	Valid *model.Assignment
	// Rogue counts the pairs dropped for naming a worker outside the batch
	// or a task outside the instance.
	Rogue int
	// Dispatches lists the executed pairs in dispatch order.
	Dispatches []Dispatch
}

// NewKernel returns a kernel with empty books.
func NewKernel(cfg KernelConfig) *Kernel {
	k := &Kernel{cfg: cfg}
	k.arena.holders = &k.holders
	return k
}

// Step runs one batch at time now over the instance's registries. rec, when
// non-nil, receives the batch's population, outcome and phase timings.
//
// The batch the allocator sees, and everything reachable from it, is built
// in the kernel's step arena and stays valid only until the next Step. The
// returned StepResult, its assignments and its dispatch list are the
// caller's. A kernel steps one batch at a time.
func (k *Kernel) Step(in *model.Instance, now float64, rec *obs.BatchRec) (*StepResult, error) {
	k.grow(in)
	bws, tasks := k.population(in, now)
	st := &StepResult{Workers: len(bws), Tasks: len(tasks)}
	rec.SetPopulation(st.Workers, st.Tasks)
	if len(bws) == 0 || len(tasks) == 0 {
		return st, nil
	}
	// satisfied changes only in dispatch, after the allocator and the
	// fixpoint have read it.
	b := k.arena.newBatch(in, bws, tasks, k.satisfied)
	b.SetRecorder(rec)
	rec.StartPhases()
	b.Index()
	if k.cfg.VerifyEngineCache {
		if err := b.VerifyIndex(); err != nil {
			return nil, fmt.Errorf("candidate engine diverged: %w", err)
		}
	}
	indexD := rec.Lap()
	if g, ok := k.cfg.Allocator.(*Game); ok && k.cfg.VerifyGameWorklist {
		if err := g.VerifyWorklist(b); err != nil {
			return nil, fmt.Errorf("game worklist diverged: %w", err)
		}
	}
	st.Raw = k.cfg.Allocator.Assign(b)
	st.Rogue = DropRoguePairs(b, st.Raw)
	// Allocators may return raw assignments (the paper's Closest and Random
	// baselines ignore dependencies); only the valid subset scores and
	// satisfies dependency obligations.
	st.Valid = DependencyFixpoint(b, st.Raw)
	allocD := rec.Lap()
	k.dispatch(b, now, st)
	rec.SetOutcome(st.Valid.Size(), st.Raw.Size()-st.Valid.Size(), st.Rogue)
	rec.ObservePhases(indexD, allocD, rec.Lap())
	return st, nil
}

// grow extends the books to the instance's registries: a new worker starts
// at its registered location with nothing used.
func (k *Kernel) grow(in *model.Instance) {
	for i := len(k.workers); i < len(in.Workers); i++ {
		k.workers = append(k.workers, WorkerState{Loc: in.Workers[i].Loc})
	}
	if n := len(in.Tasks) - len(k.finishAt); n > 0 {
		k.assignedTo = append(k.assignedTo, make([]model.WorkerID, n)...)
		k.finishAt = append(k.finishAt, make([]float64, n)...)
		k.gone = append(k.gone, make([]bool, n)...)
	}
	// Sized up front, so a valid or botched dispatch never grows them.
	if n := len(in.Tasks) - len(k.satisfied); n > 0 {
		k.satisfied = append(k.satisfied, make([]bool, n)...)
	}
	if n := len(in.Tasks) - len(k.botched); n > 0 {
		k.botched = append(k.botched, make([]bool, n)...)
	}
}

// population builds the batch at now: the active workers (appeared, not
// expired, not busy) and the pending tasks (appeared, deadline not passed,
// neither assigned nor botched), both in registration order. It admits
// everything registered since the last step, walks only k.pop's due
// candidates and drops for good what can never qualify again: an expired
// worker, and an assigned, botched or overdue task. A task already assigned
// or botched when it is admitted (a restored book) is due at once, so the
// walk drops it, and marks it gone, at the first step as a full scan
// would. Newly registered workers join k.holders too.
//
// For a dependency-aware allocator it also retires for good every appeared
// task with a gone dependency. The walk runs in registration order, and a
// generated or served task's dependency set is closed and names lower IDs,
// so one check of t.Deps sees every gone dependency at any depth, retired
// ones included. On a hand-built instance a dependency with a higher ID is
// seen gone one batch late; retirement only ever drops tasks that no valid
// assignment can hold.
func (k *Kernel) population(in *model.Instance, now float64) (bws []BatchWorker, tasks []*model.Task) {
	bws, tasks = k.arena.workers[:0], k.arena.tasks[:0]
	workerDue := func(i int) float64 { w := &in.Workers[i]; return min(w.Start, w.Expiry()) }
	taskDue := func(i int) float64 {
		t := &in.Tasks[i]
		if k.satisfied.Has(t.ID) || k.botched.Has(t.ID) {
			return math.Inf(-1)
		}
		return min(t.Start, t.Deadline())
	}
	k.pop.Admit(len(in.Workers), len(in.Tasks), now, workerDue, taskDue, &k.arena.admit)
	k.holders.register(in, now)
	k.pop.Workers(func(i int) bool {
		w, ws := &in.Workers[i], &k.workers[i]
		if now > w.Expiry() {
			return false
		}
		if w.Start > now || ws.BusyUntil > now {
			return true
		}
		bws = append(bws, BatchWorker{W: w, Loc: ws.Loc, ReadyAt: now, DistBudget: w.MaxDist - ws.DistUsed})
		return true
	})
	aware := k.cfg.Allocator.DependencyAware()
	k.pop.Tasks(func(i int) bool {
		t := &in.Tasks[i]
		if k.satisfied.Has(t.ID) {
			return false
		}
		if k.botched.Has(t.ID) || t.Deadline() < now {
			k.gone[t.ID] = true
			return false
		}
		if t.Start > now {
			return true
		}
		if aware && k.hasGoneDep(t) {
			k.gone[t.ID] = true
			return false
		}
		tasks = append(tasks, t)
		return true
	})
	k.arena.workers, k.arena.tasks = bws, tasks
	return bws, tasks
}

// hasGoneDep reports whether a dependency of t is gone.
func (k *Kernel) hasGoneDep(t *model.Task) bool {
	for _, dep := range t.Deps {
		if k.gone.Has(dep) {
			return true
		}
	}
	return false
}

// dispatch executes st.Raw in DispatchOrder, so a dependant co-assigned with
// its dependency waits for the dependency's finish whatever order the
// allocator listed the pairs in. Valid pairs meet their task's dependency
// obligation at assignment time (Definition 3, constraint 4); invalid pairs
// still execute — the worker travels and the task is consumed — and are
// simply wasted, the penalty the paper charges the oblivious baselines.
func (k *Kernel) dispatch(b *Batch, now float64, st *StepResult) {
	dist := b.Dist()
	order := k.arena.dispatchOrder(b.In, st.Raw)
	// The valid pairs' tasks hold stamp valid in the arena's task table,
	// taken after the order's stamps.
	vt := &k.arena.pairTasks
	valid := vt.reserve(len(b.In.Tasks), 1)
	for _, p := range st.Valid.Pairs {
		vt.tag[p.Task] = valid
	}
	st.Dispatches = make([]Dispatch, 0, len(order))
	for _, pair := range order {
		// DropRoguePairs already removed pairs naming workers outside
		// the batch; the guard stays as a backstop so a miss can never
		// dispatch through batch index 0.
		bi := b.WorkerIndex(pair.Worker)
		if bi < 0 {
			st.Rogue++
			continue
		}
		w, ws := b.Workers[bi].W, &k.workers[pair.Worker]
		t := b.In.Task(pair.Task)
		if t.Start > now {
			// A task outside the batch: the walk must see it at once.
			k.pop.Wake(int(pair.Task))
		}
		d := Dispatch{Pair: pair, Dist: dist(ws.Loc, t.Loc), Valid: vt.index(int(pair.Task), valid, 1) == 0}
		d.ServiceStart = math.Max(now, t.Start) + w.TravelTime(ws.Loc, t.Loc, dist)
		for _, dep := range t.Deps {
			if k.satisfied.Has(dep) && k.finishAt[dep] > d.ServiceStart {
				d.ServiceStart = k.finishAt[dep]
			}
		}
		d.Finish = d.ServiceStart + k.cfg.ServiceTime
		ws.Loc = t.Loc
		ws.DistUsed += d.Dist
		ws.BusyUntil = d.Finish
		ws.Done++
		if d.Valid {
			d.Again = k.satisfied.Has(pair.Task)
			k.satisfied.Set(pair.Task)
			k.assignedTo[pair.Task] = pair.Worker
			k.finishAt[pair.Task] = d.Finish
		} else {
			k.botched.Set(pair.Task)
		}
		st.Dispatches = append(st.Dispatches, d)
	}
}

// Worker returns w's dispatch state; a worker no step has seen yet is at its
// registered location with nothing used.
func (k *Kernel) Worker(w *model.Worker) WorkerState {
	if int(w.ID) < len(k.workers) {
		return k.workers[w.ID]
	}
	return WorkerState{Loc: w.Loc}
}

// Task returns task id's book.
func (k *Kernel) Task(id model.TaskID) TaskBook {
	tb := TaskBook{Assigned: k.satisfied.Has(id), Botched: k.botched.Has(id)}
	if tb.Assigned {
		tb.Worker, tb.FinishAt = k.assignedTo[id], k.finishAt[id]
	}
	return tb
}

// Live reports how many workers and tasks the population still holds as
// candidates for a later batch.
func (k *Kernel) Live() (workers, tasks int) { return k.pop.Len() }

// Restore replaces the books of a kernel that has not stepped yet with the
// given worker states (kept, not copied) and task books, both indexed by ID.
// The population is still empty, so the first step admits and filters the
// whole restored registry once, which also rebuilds the gone flags.
func (k *Kernel) Restore(workers []WorkerState, tasks []TaskBook) {
	k.workers = workers
	k.satisfied = make(model.TaskFlags, len(tasks))
	k.botched = make(model.TaskFlags, len(tasks))
	k.assignedTo = make([]model.WorkerID, len(tasks))
	k.finishAt = make([]float64, len(tasks))
	k.gone = make(model.TaskFlags, len(tasks))
	for id, tb := range tasks {
		if tb.Assigned {
			k.satisfied[id] = true
			k.assignedTo[id], k.finishAt[id] = tb.Worker, tb.FinishAt
		}
		k.botched[id] = tb.Botched
	}
}
