// Package core implements the paper's contribution: the batch-based DA-SC
// allocators. DASC_Greedy (Algorithm 1) commits the largest fully-staffable
// associative task set per round; DASC_Game (Algorithm 3) runs a
// best-response dynamic over an exact potential game with the utility of
// Equation 3; Closest and Random are the paper's dependency-oblivious
// baselines; DFS is the exact branch-and-bound used as ground truth on
// small instances (Table VI).
//
// All allocators consume a Batch — the workers and tasks active in one batch
// process b — and produce a model.Assignment that satisfies all four
// constraints of Definition 3.
package core

import (
	"sync"

	"dasc/internal/geo"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// BatchWorker is a worker's state at the start of a batch. In the static
// single-batch setting it mirrors the worker's declared parameters; the
// simulator overrides location, readiness and remaining distance budget as
// the worker travels and completes tasks.
type BatchWorker struct {
	W          *model.Worker
	Loc        geo.Point // current location
	ReadyAt    float64   // earliest time the worker can start moving
	DistBudget float64   // remaining maximum moving distance
}

// Batch is the input of one batch process: the active workers W_b, the
// pending tasks T_b, and the set of tasks whose dependency obligations are
// already met by earlier batches.
//
// A batch reads and builds everything from its step arena (stepArena): the
// candidate engine, the dependency wiring and the allocators' working
// state. A batch built by Kernel.Step, and everything reachable from it —
// its Workers and Tasks, its index's sets, the slices an allocator was
// handed — stays valid only until the kernel's next Step, which reuses the
// arena. Only one allocator call may run on a batch at a time.
type Batch struct {
	In      *model.Instance
	Workers []BatchWorker
	Tasks   []*model.Task
	// Satisfied marks tasks assigned or completed in earlier batches; a
	// dependency on such a task is considered met. The batch only reads it.
	Satisfied model.TaskFlags

	dist geo.DistanceFunc

	// arena owns every buffer the batch builds; taskBase and workerBase are
	// the batch's stamps in the arena's ID tables (TaskIndex, WorkerIndex).
	arena      *stepArena
	taskBase   uint32
	workerBase uint32

	idxOnce sync.Once
	idx     *BatchIndex

	// wire is the batch's dependency wiring (see wiring.go), built once per
	// batch like the candidate index: it depends only on Tasks and Satisfied,
	// so every allocator stage and best-response run over this batch shares
	// it read-only.
	wireOnce sync.Once
	wire     *depWiring

	// rec observes the batch's candidate-engine work (obs.BatchRec is
	// nil-safe, so the instrumented paths call it unconditionally; nil is
	// the disabled state and costs one nil check per site).
	rec *obs.BatchRec
}

// NewStaticBatch wraps a whole instance as a single batch, the setting of
// the paper's per-batch analysis and of the small-scale experiment: every
// worker at its declared location with its full budget. The batch has a
// step arena of its own.
func NewStaticBatch(in *model.Instance) *Batch {
	var workers []BatchWorker
	var tasks []*model.Task
	for i := range in.Workers {
		w := &in.Workers[i]
		workers = append(workers, BatchWorker{
			W: w, Loc: w.Loc, ReadyAt: w.Start, DistBudget: w.MaxDist,
		})
	}
	for i := range in.Tasks {
		tasks = append(tasks, &in.Tasks[i])
	}
	return new(stepArena).newBatch(in, workers, tasks, nil)
}

// NewBatch assembles a batch from explicit worker states and task pointers,
// with a step arena of its own. satisfied may be nil; the batch keeps it
// without copying and never writes it, so a platform can hand over its
// persistent set as long as it does not change the set while the batch is
// being allocated.
func NewBatch(in *model.Instance, workers []BatchWorker, tasks []*model.Task, satisfied model.TaskFlags) *Batch {
	return new(stepArena).newBatch(in, workers, tasks, satisfied)
}

// Dist returns the batch's travel metric.
func (b *Batch) Dist() geo.DistanceFunc { return b.dist }

// SetRecorder installs the batch's instrumentation recorder; nil disables
// recording. Install it before the candidate engine is built (Index) or
// the build's counters are lost.
func (b *Batch) SetRecorder(r *obs.BatchRec) { b.rec = r }

// Recorder returns the batch's instrumentation recorder, possibly nil.
func (b *Batch) Recorder() *obs.BatchRec { return b.rec }

// TaskIndex returns the index of task id within b.Tasks, or -1 when the task
// is not pending in this batch.
func (b *Batch) TaskIndex(id model.TaskID) int {
	return b.arena.taskIDs.index(int(id), b.taskBase, len(b.Tasks))
}

// WorkerIndex returns the index of worker id within b.Workers, or -1 when the
// worker is not active in this batch. Dispatch loops must use the -1 signal
// instead of a bare map lookup: a zero-value miss would silently resolve to
// batch worker 0.
func (b *Batch) WorkerIndex(id model.WorkerID) int {
	return b.arena.workerIDs.index(int(id), b.workerBase, len(b.Workers))
}

// DropRoguePairs removes from m every pair naming a worker that is not
// active in this batch or a task ID outside the instance, and returns how
// many were dropped. Allocators are contractually bound to b.Workers and
// b.Tasks, but a misbehaving custom implementation is not: the dependency
// fixpoint and dispatch look each pair's task up in the instance, where an
// ID outside it would panic them, and a worker outside the batch has no
// batch state to dispatch. The kernel calls this right after Assign so
// they see only real pairs. A pair naming a real task that is not pending
// stays: dispatch treats it like any other pair.
func DropRoguePairs(b *Batch, m *model.Assignment) int {
	kept := m.Pairs[:0]
	for _, p := range m.Pairs {
		if b.WorkerIndex(p.Worker) >= 0 && b.In.Task(p.Task) != nil {
			kept = append(kept, p)
		}
	}
	dropped := len(m.Pairs) - len(kept)
	m.Pairs = kept
	return dropped
}

// Feasible reports whether batch worker wi can take task t under the skill,
// deadline and distance constraints, from its current state.
func (b *Batch) Feasible(wi int, t *model.Task) bool {
	bw := &b.Workers[wi]
	return model.FeasibleFrom(bw.W, bw.Loc, bw.ReadyAt, bw.DistBudget, t, b.dist)
}

// TravelCost returns the travel time for batch worker wi to reach t,
// the cost the greedy Hungarian matching minimises.
func (b *Batch) TravelCost(wi int, t *model.Task) float64 {
	bw := &b.Workers[wi]
	return bw.W.TravelTime(bw.Loc, t.Loc, b.dist)
}

// Index returns the batch's candidate engine, building it on first use. The
// build is parallel internally but the returned index is immutable, so every
// allocator stage reads it without synchronisation.
func (b *Batch) Index() *BatchIndex {
	b.idxOnce.Do(func() { b.idx = newBatchIndex(b) })
	return b.idx
}

// StrategySets computes S_w for every batch worker: the pending tasks the
// worker can feasibly take, as indexes into b.Tasks, ascending. Served from
// the candidate engine; ScanStrategySets is the brute-force cross-check.
func (b *Batch) StrategySets() [][]int {
	idx := b.Index()
	out := make([][]int, len(b.Workers))
	for wi := range b.Workers {
		set := idx.StrategySet(wi)
		if len(set) == 0 {
			continue
		}
		s := make([]int, len(set))
		for i, ti := range set {
			s[i] = int(ti)
		}
		out[wi] = s
	}
	return out
}

// ScanStrategySets computes the strategy sets by the original full
// worker×task feasibility scan. It is the differential cross-check (and
// benchmark baseline) for the indexed path; both must agree exactly.
func (b *Batch) ScanStrategySets() [][]int {
	out := make([][]int, len(b.Workers))
	for wi := range b.Workers {
		var set []int
		for ti, t := range b.Tasks {
			if b.Feasible(wi, t) {
				set = append(set, ti)
			}
		}
		out[wi] = set
	}
	return out
}

// CandidateWorkers returns, ascending, the batch worker indexes that can
// feasibly take task t. Pending tasks are served from the candidate engine;
// a task outside the batch falls back to the scan.
func (b *Batch) CandidateWorkers(t *model.Task) []int {
	ti := b.TaskIndex(t.ID)
	if ti < 0 || b.Tasks[ti] != t {
		return b.ScanCandidateWorkers(t)
	}
	set := b.Index().CandidateSet(ti)
	if len(set) == 0 {
		return nil
	}
	out := make([]int, len(set))
	for i, wi := range set {
		out[i] = int(wi)
	}
	return out
}

// ScanCandidateWorkers computes a task's candidate workers by the original
// full scan — the cross-check twin of ScanStrategySets.
func (b *Batch) ScanCandidateWorkers(t *model.Task) []int {
	var out []int
	for wi := range b.Workers {
		if b.Feasible(wi, t) {
			out = append(out, wi)
		}
	}
	return out
}
