package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"dasc/internal/model"
)

// stepArena owns every per-batch buffer of the batch built over it: the
// population, the ID tables behind TaskIndex and WorkerIndex, the candidate
// engine's arrays, rows and skill buckets, the dependency wiring,
// the associative sets, Greedy's and Game's working state and the RNG.
// Every buffer grows geometrically and is never shrunk, so once an arena
// has seen its largest batch, building and allocating a batch over it
// allocates nothing but what the allocator returns.
//
// The contract: building a batch over an arena (newBatch) invalidates the
// previous batch built over it and everything that batch handed out —
// its population slices, index sets, wiring, assignments' scratch. The
// kernel builds one batch per Step over its own arena, so a Batch and
// everything reachable from it stay valid only until the next Step.
// NewBatch and NewStaticBatch build over a fresh arena. Only one allocator
// call may run on a batch at a time: they share the arena's working state.
type stepArena struct {
	// workers and tasks are the kernel's batch population, filled by
	// Kernel.population; admit is the population's admission scratch.
	workers []BatchWorker
	tasks   []*model.Task
	admit   admitScratch

	batch Batch

	// taskIDs maps the pending tasks' IDs to their indexes (TaskIndex) and
	// is the wiring build's deduplication scratch; workerIDs maps the batch
	// workers' IDs to their indexes (WorkerIndex).
	taskIDs   depScratch
	workerIDs idStamps

	// The candidate engine: the index, its per-goroutine build scratch, and
	// the skill buckets over the pending tasks.
	idx       BatchIndex
	scratches []buildScratch
	buildNext atomic.Int64   // fanOut's work cursor
	buildWG   sync.WaitGroup // fanOut's goroutines
	buckets   skillBuckets
	// holders links the kernel's workers by skill, nil outside a kernel;
	// it outlives every batch and is the kernel's, not the arena's.
	// pairs holds the skill-first build's (worker, task) pairs. force pins
	// the build for tests (buildAuto applies the size rule); built records
	// the build that made the last index.
	holders *skillHolders
	pairs   []uint64
	force   candidateBuild
	built   candidateBuild

	wire    depWiring
	wireCnt []int32

	// atSets' sets, their pointers and their flat member backing.
	sets    []atSet
	setPtrs []*atSet
	members []int

	greedy greedyScratch
	game   gameState
	wl     gameWorklist
	trace  GameTrace    // Game.Assign's trace; AssignTraced hands out its own
	seed   []model.Pair // G-G's greedy seed as pairs (seedFixpoint)
	taken  []bool       // the baselines' taken tasks
	avail  []int        // Random's free candidates of one worker
	rnd    *rand.Rand

	// pairTasks is the task-ID-indexed scratch of the assignment-level
	// passes (dependency fixpoint, dispatch order, the dispatch's valid
	// set); firstPos and nextPos are the dispatch order's pair chains.
	pairTasks idStamps
	firstPos  []int32
	nextPos   []int32
	ordered   []model.Pair
}

// newBatch resets the arena and builds a batch over it; the batch keeps
// workers, tasks and satisfied without copying.
func (a *stepArena) newBatch(in *model.Instance, workers []BatchWorker, tasks []*model.Task, satisfied model.TaskFlags) *Batch {
	for i := range a.scratches {
		a.scratches[i].rows = a.scratches[i].rows[:0]
		a.scratches[i].costs = a.scratches[i].costs[:0]
	}
	b := &a.batch
	*b = Batch{In: in, Workers: workers, Tasks: tasks, Satisfied: satisfied, dist: in.Distance(), arena: a}
	b.taskBase = a.taskIDs.begin(in, tasks)
	size := len(in.Workers)
	for i := range workers {
		size = max(size, int(workers[i].W.ID)+1)
	}
	b.workerBase = a.workerIDs.reserve(size, len(workers))
	for i := range workers {
		if id := workers[i].W.ID; id >= 0 {
			a.workerIDs.tag[id] = b.workerBase + uint32(i)
		}
	}
	return b
}

// rng returns the arena's generator reseeded to seed, which replays the
// stream of a fresh rand.New(rand.NewSource(seed)).
func (a *stepArena) rng(seed int64) *rand.Rand {
	if a.rnd == nil {
		a.rnd = rand.New(rand.NewSource(seed))
	} else {
		a.rnd.Seed(seed)
	}
	return a.rnd
}

// idStamps is a generation-stamped table indexed by ID. Each use reserves a
// fresh range of stamps above every stamp written before, so entries left
// by earlier uses never match and nothing is cleared between uses; a use
// costs O(its own entries) however large the table is.
type idStamps struct {
	tag  []uint32
	next uint32 // first stamp the next use may take; 0 before first use
}

// reserve grows the table to cover IDs below size and returns the base of
// n fresh stamps [base, base+n).
func (s *idStamps) reserve(size, n int) uint32 {
	if grow := size - len(s.tag); grow > 0 {
		s.tag = append(s.tag, make([]uint32, grow)...)
	}
	switch {
	case s.next == 0:
		// Fresh: the table holds no stamp yet.
		s.next = 1
	case uint64(s.next)+uint64(n) > math.MaxUint32:
		// Clear the whole capacity: a later growth within it must not
		// expose a stamp from before the wrap.
		clear(s.tag[:cap(s.tag)])
		s.next = 1
	}
	base := s.next
	s.next += uint32(n)
	return base
}

// index returns i when id holds stamp base+i with i < n, and -1 otherwise.
func (s *idStamps) index(id int, base uint32, n int) int {
	if id < 0 || id >= len(s.tag) {
		return -1
	}
	if i := s.tag[id] - base; i < uint32(n) {
		return int(i)
	}
	return -1
}

// grown returns a length-n slice reusing s's capacity when possible and at
// least doubling it otherwise, so a buffer resized batch after batch
// reallocates O(log n) times. The contents are unspecified; callers must
// initialise them.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// buildScratch is the per-goroutine working state of an index build: the
// co-sorting view, and the rows and costs buffers every strategy set and
// cost row the goroutine builds is appended to. The index keeps slices of
// them capped at their length, so appending to one row can never bleed
// into its neighbour; when an append reallocates, the earlier rows stay
// valid in the old array, which nothing writes again.
// The buffers restart empty with each batch, so once they have grown to the
// largest batch a build appends without allocating. The sorter lives here
// so sort.Sort receives a pointer that is already heap-resident instead of
// boxing a fresh interface value per worker.
type buildScratch struct {
	rows   []int32
	costs  []float64
	sorter strategyByIndex
}

// sortRow sorts the row appended from off, with its costs, ascending by
// task index.
func (sc *buildScratch) sortRow(off int) {
	sc.sorter.set, sc.sorter.costs = sc.rows[off:], sc.costs[off:]
	sortStrategyByIndex(&sc.sorter)
	sc.sorter.set, sc.sorter.costs = nil, nil
}
