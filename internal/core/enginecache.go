package core

import (
	"math"
	"runtime"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// EngineCache carries the candidate engine across batches. A platform tick
// loop (sim.Platform.Run, server.Platform.Tick) creates one cache per run
// and calls Attach on every batch; the cache then builds each batch's
// BatchIndex incrementally from the previous one instead of from scratch.
//
// The regime this exploits is exactly the steady state of a dynamic
// platform: between consecutive batches only the workers that were assigned
// move, only a few tasks enter (new arrivals) or leave (assigned, botched or
// expired), and the clock advances. Per batch the cache therefore does:
//
//   - Unmoved workers (same location, same distance budget, readiness only
//     advanced): the cached strategy set is REVALIDATED, not rebuilt. Of
//     FeasibleFrom's four components, skill, window overlap and distance
//     budget do not depend on the clock, and the deadline check
//     depart + travel ≤ deadline is monotone in the readiness time — so a
//     cached pair can only flip feasible → infeasible, never back, and the
//     flip is decided by model.DeadlineFeasible over the memoized travel
//     time. Zero distance evaluations for these workers.
//   - Moved or new workers: rebuilt through the same skill-bucket /
//     spatial-grid path as the from-scratch build.
//   - Departed tasks: dropped from the maintained spatial grid
//     (geo.GridIndex.Remove) and filtered out of every cached set during
//     revalidation by their stale stamp in the ID-indexed task table.
//   - Newly arrived tasks: probed only against workers holding their
//     required skill (for unmoved workers; moved workers see them through
//     their rebuild).
//
// The per-worker revalidate/rebuild loop fans out over the same
// deterministic chunked goroutine pool as the from-scratch build: each
// goroutine owns disjoint index slots and its own scratch buffers and slab
// arenas, so the result is bit-identical to the serial walk (and to
// newBatchIndex, which Batch.VerifyIndex checks differentially).
//
// Memory ownership is explicit and one-way: the BatchIndex returned for a
// batch owns its arena-backed strategy/cost/candidate slices and is
// immutable once returned; the cache keeps its own copies (cachedWorker
// structs from a recycled free list, task/cost rows in cache-owned
// buffers reused batch over batch). The cache never holds a reference into
// an index it handed out, so recycling cache state can never mutate a
// previously returned index (TestEngineCacheNeverMutatesReturnedIndex).
//
// Contract: a cache belongs to one platform. The travel metric must not
// change between batches (guarded best-effort by function-pointer identity:
// a change forces a full rebuild), worker and task parameters must be
// immutable per ID while cached (the platforms' registries are append-only),
// and IDs must be unique within a batch. IDs index the cache's dense tables,
// so a batch with an ID outside its instance (negative, or at least
// len(In.Workers) or len(In.Tasks) — Validate rejects both) is built from
// scratch and the next batch starts afresh. A cache is not safe for concurrent
// Attach calls; the platforms attach under their own single-threaded loop or
// mutex.
type EngineCache struct {
	valid   bool
	distPtr uintptr
	// distID memoizes the reflect-derived code pointer of the metric, so
	// the identity check costs a pointer compare per Attach instead of a
	// reflection walk.
	distID geo.FuncID

	// slot and tag are dense tables indexed by worker and task ID, sized to
	// the largest instance attached: grow-only, never cleared per batch,
	// and pointer-free, so they cost the GC nothing. A batch with an ID
	// outside its instance is built from scratch instead (fits).
	//
	// slot[id] is 1 + the index in store of worker id's cachedWorker, or 0
	// when the worker is not cached. workerIDs lists the last batch's
	// workers: absorb restamps every cached worker present in the batch,
	// and the workers of the last batch it left unstamped have departed
	// and go to the free list. In the platforms a worker only disappears
	// by being assigned (and so moving) or by leaving its window, but
	// dropping keeps the cache sound for any caller.
	slot      []int32
	workerIDs []model.WorkerID
	// store holds the cachedWorker structs; free lists the store indexes
	// of departed workers, buffers attached, for reuse. ids/floats are the
	// slabs the task-ID and cost rows are carved from.
	store  []cachedWorker
	free   []int32
	ids    slab[model.TaskID]
	floats slab[float64]
	// gen marks which absorb pass last touched a cachedWorker. Every
	// worker of the last batch is restamped or swept each batch, and the
	// sweep only reads workers of the last batch, so wrap-around cannot
	// produce a stale match.
	gen uint32

	// tag[id]-base < len(taskIDs) iff task id was pending in the last
	// batch, at index tag[id]-base; taskIDs lists that batch's task IDs.
	// Each batch reserves the stamps base … base+n-1 above every stamp
	// written before (next is the first free one), so entries left by
	// earlier batches never match and nothing is cleared until the stamps
	// wrap.
	tag     []uint32
	base    uint32
	next    uint32
	taskIDs []model.TaskID

	// arrived is the reusable arrival-probe buffer of the task diff;
	// arrivals and pool are the reusable skill buckets over the arrivals
	// and over the whole batch.
	arrived  []int32
	arrivals skillBuckets
	pool     skillBuckets

	// grid spatially indexes the pending task locations across batches,
	// keyed by int(TaskID); maintained by Insert/Remove as tasks arrive and
	// depart. nil when the metric admits no Euclidean lower bound.
	grid     *geo.GridIndex
	gridable bool
	boxScale float64
	boxArea  float64

	stats EngineCacheStats
}

// cachedWorker is one worker's state snapshot and strategy set from the last
// batch. The static parameters are recorded so a mutated registration
// invalidates the entry (falls back to a rebuild) instead of poisoning it.
type cachedWorker struct {
	loc        geo.Point
	readyAt    float64
	distBudget float64

	start, wait, velocity, maxDist float64

	gen uint32

	// tasks and costs mirror the worker's strategy set by task ID (batch
	// indexes do not survive across batches) with the aligned travel-time
	// memo. Both slices are owned by the cache — they are copies, never
	// views into a returned BatchIndex — and are reused batch over batch.
	tasks []model.TaskID
	costs []float64
}

// EngineCacheStats counts what the cache did, for observability and tests.
type EngineCacheStats struct {
	Batches        int // Attach calls
	FullRebuilds   int // batches built entirely from scratch
	WorkersReused  int // strategy sets revalidated by time arithmetic
	WorkersRebuilt int // strategy sets rebuilt through the pruned scan
	WorkersPooled  int // cachedWorker structs recycled from the free list
	TasksArrived   int // tasks probed as new arrivals
	TasksDeparted  int // tasks dropped from the cache and grid
}

// NewEngineCache returns an empty cache; the first Attach does a full build.
func NewEngineCache() *EngineCache {
	return &EngineCache{}
}

// Stats returns the cache's counters so far.
func (c *EngineCache) Stats() EngineCacheStats { return c.stats }

// PoolOccupancy returns how many departed workers' cachedWorker structs the
// free list currently holds.
func (c *EngineCache) PoolOccupancy() int { return len(c.free) }

// Attach installs the cache-built candidate engine as b's index (what
// b.Index() and every allocator will consume) and absorbs the batch so the
// next Attach can go incremental. If the batch's index was already built
// (someone called b.Index() first), that index is absorbed instead.
func (c *EngineCache) Attach(b *Batch) *BatchIndex {
	return c.attachN(b, runtime.NumCPU())
}

// attachN is Attach with an explicit fan-out bound, so tests can force the
// concurrent incremental path on any machine.
func (c *EngineCache) attachN(b *Batch, procs int) *BatchIndex {
	built := false
	b.idxOnce.Do(func() {
		b.idx = c.buildN(b, procs)
		built = true
	})
	if !built {
		// Someone built the index from scratch already; adopt it as the
		// incremental baseline (grid and metric identity included).
		if c.fits(b) {
			c.adopt(b, b.idx)
		} else {
			c.valid = false
		}
	}
	return b.idx
}

func (c *EngineCache) buildN(b *Batch, procs int) *BatchIndex {
	c.stats.Batches++
	if !c.fits(b) {
		// The batch cannot be cached; the next one starts afresh.
		c.valid = false
		return c.scratch(b)
	}
	dp := c.distID.Of(b.dist)
	if !c.valid || dp != c.distPtr ||
		// A grid-able metric with no grid (first populated batch after an
		// empty one) cannot be maintained incrementally; rebuild to get one.
		(c.gridable && c.grid == nil && len(b.Tasks) > 0) ||
		// The task stamps would wrap.
		uint64(c.next)+uint64(len(b.Tasks)) > math.MaxUint32 {
		return c.reset(b)
	}
	return c.incrementalN(b, procs)
}

// fits reports whether every worker and task ID of b can index the dense
// tables — 0 ≤ id < len(b.In.Workers), resp. len(b.In.Tasks), which holds
// for every validated instance and every server registry — and if so grows
// the tables to the instance.
func (c *EngineCache) fits(b *Batch) bool {
	for i := range b.Workers {
		if id := b.Workers[i].W.ID; id < 0 || int(id) >= len(b.In.Workers) {
			return false
		}
	}
	for _, t := range b.Tasks {
		if t.ID < 0 || int(t.ID) >= len(b.In.Tasks) {
			return false
		}
	}
	if n := len(b.In.Workers) - len(c.slot); n > 0 {
		c.slot = append(c.slot, make([]int32, n)...)
	}
	if n := len(b.In.Tasks) - len(c.tag); n > 0 {
		c.tag = append(c.tag, make([]uint32, n)...)
	}
	return true
}

// scratch performs a from-scratch build, counted as a full rebuild.
func (c *EngineCache) scratch(b *Batch) *BatchIndex {
	c.stats.FullRebuilds++
	c.stats.WorkersRebuilt += len(b.Workers)
	b.rec.CacheFullRebuild()
	b.rec.AddCacheWorkersRebuilt(int64(len(b.Workers)))
	return newBatchIndex(b)
}

// reset performs a from-scratch build and adopts the result.
func (c *EngineCache) reset(b *Batch) *BatchIndex {
	idx := c.scratch(b)
	c.adopt(b, idx)
	return idx
}

// adopt makes a from-scratch index (built by reset or by a caller before
// Attach) the cache's incremental baseline: it records the metric identity,
// (re)creates the maintained grid over the batch's pending tasks, and
// absorbs the worker states and strategy sets.
func (c *EngineCache) adopt(b *Batch, idx *BatchIndex) {
	c.distPtr = c.distID.Of(b.dist)
	c.grid = nil
	c.boxScale, c.boxArea = 0, 0
	scale, ok := geo.EuclideanBoundScale(b.In.Dist)
	c.gridable = ok
	if ok && len(b.Tasks) > 0 {
		box := pendingBBox(b)
		c.grid = geo.NewGridIndex(box, len(b.Tasks)+1)
		for _, t := range b.Tasks {
			c.grid.Insert(int(t.ID), t.Loc)
		}
		b.rec.AddGridOps(int64(len(b.Tasks)))
		c.boxScale = scale
		c.boxArea = box.Width() * box.Height()
		if c.boxArea <= 0 {
			c.boxArea = 1e-18
		}
	}
	c.absorbWorkers(b, idx)
	c.stampTasks(b)
}

// stampTasks records the batch's pending tasks as the baseline of the next
// task diff (adopt path; the incremental path stamps during the diff).
func (c *EngineCache) stampTasks(b *Batch) {
	n := uint32(len(b.Tasks))
	if c.next == 0 || uint64(c.next)+uint64(n) > math.MaxUint32 {
		if c.next != 0 {
			clear(c.tag)
		}
		c.next = 1
	}
	c.base = c.next
	c.next += n
	for i, t := range b.Tasks {
		c.tag[t.ID] = c.base + uint32(i)
	}
	c.recordTaskIDs(b)
}

// recordTaskIDs keeps the batch's task IDs for the next diff's departure
// walk.
func (c *EngineCache) recordTaskIDs(b *Batch) {
	c.taskIDs = c.taskIDs[:0]
	for _, t := range b.Tasks {
		c.taskIDs = append(c.taskIDs, t.ID)
	}
}

// cacheScratch is one incremental-build goroutine's private state: the
// shared build scratch (buffers + slabs) plus outcome counters flushed
// once per goroutine instead of once per worker.
type cacheScratch struct {
	bs      buildScratch
	reused  int64
	rebuilt int64
}

// incrementalN builds the batch's index from the cached previous batch,
// fanning the per-worker revalidate/rebuild loop out over up to procs
// goroutines (fanOut, the deterministic chunked pool newBatchIndexN uses).
func (c *EngineCache) incrementalN(b *Batch, procs int) *BatchIndex {
	idx := &BatchIndex{
		b:          b,
		strategies: make([][]int32, len(b.Workers)),
		costs:      make([][]float64, len(b.Workers)),
		candidates: make([][]int32, len(b.Tasks)),
	}

	// Task diff against the last batch's stamps, restamping as it goes:
	// a task whose stamp is not in the last batch's range has arrived, and
	// forms the probe set for unmoved workers (ascending by index, like
	// the batch). Then a task of the last batch that did not get a stamp
	// of this batch has departed. Both update the maintained grid.
	n := uint32(len(b.Tasks))
	prevBase, prevN := c.base, uint32(len(c.taskIDs))
	base := c.next
	c.next += n
	gridOps := 0
	arrived := c.arrived[:0]
	for i, t := range b.Tasks {
		if c.tag[t.ID]-prevBase >= prevN {
			arrived = append(arrived, int32(i))
			if c.grid != nil {
				c.grid.Insert(int(t.ID), t.Loc)
				gridOps++
			}
		}
		c.tag[t.ID] = base + uint32(i)
	}
	departed := 0
	for _, id := range c.taskIDs {
		if c.tag[id]-base >= n {
			departed++
			if c.grid != nil {
				c.grid.Remove(int(id))
				gridOps++
			}
		}
	}
	c.base = base
	c.recordTaskIDs(b)
	c.arrived = arrived
	c.stats.TasksDeparted += departed
	c.stats.TasksArrived += len(arrived)
	b.rec.AddCacheTasksDeparted(int64(departed))
	b.rec.AddCacheTasksArrived(int64(len(arrived)))
	b.rec.AddGridOps(int64(gridOps))

	// Skill buckets: over the arrivals for the revalidation probes, over the
	// whole batch for worker rebuilds.
	limit := skillLimit(b)
	c.arrivals.buildSel(b, arrived, limit)
	c.pool.buildAll(b, limit)
	ps := prunedScan{buckets: &c.pool, pos: c.tag, base: base}
	if c.grid != nil {
		ps.grid = c.grid
		ps.boxScale = c.boxScale
		ps.density = float64(c.grid.Len()) / c.boxArea
	}

	// The per-worker loop. Shared cache state (the worker and task
	// tables, the grid, the skill buckets) is read-only until every
	// goroutine is done; each goroutine writes only its own disjoint idx
	// slots and scratch.
	work := func(wi int, sc *cacheScratch) {
		bw := &b.Workers[wi]
		var cw *cachedWorker
		if s := c.slot[bw.W.ID]; s != 0 {
			cw = &c.store[s-1]
		}
		if cw != nil &&
			cw.loc == bw.Loc &&
			cw.distBudget == bw.DistBudget && //lint:epsfloat-ok bit-identity invalidation compare; a tolerance would treat distinct cached states as equal
			bw.ReadyAt >= cw.readyAt && //lint:epsfloat-ok monotone-readiness guard is deliberately exact; DeadlineFeasible applies the epsilon downstream
			cw.start == bw.W.Start && cw.wait == bw.W.Wait && //lint:epsfloat-ok bit-identity invalidation compare; a tolerance would treat distinct cached states as equal
			cw.velocity == bw.W.Velocity && cw.maxDist == bw.W.MaxDist { //lint:epsfloat-ok bit-identity invalidation compare; a tolerance would treat distinct cached states as equal
			c.revalidate(b, wi, cw, base, idx, &sc.bs)
			sc.reused++
		} else {
			ps.scan(b, wi, idx, &sc.bs)
			sc.rebuilt++
		}
	}

	scs := fanOut(len(b.Workers), procs, work)
	for p := range scs {
		c.flush(b, &scs[p])
	}

	idx.invertStrategies()
	c.absorbWorkers(b, idx)
	return idx
}

// flush folds one goroutine's outcome counters into the cache stats and the
// batch recorder, and publishes its arena economy.
func (c *EngineCache) flush(b *Batch, sc *cacheScratch) {
	c.stats.WorkersReused += int(sc.reused)
	c.stats.WorkersRebuilt += int(sc.rebuilt)
	b.rec.AddCacheWorkersRevalidated(sc.reused)
	b.rec.AddCacheWorkersRebuilt(sc.rebuilt)
	sc.bs.flushArena(b)
}

// revalidate re-derives an unmoved worker's strategy set: cached entries are
// filtered by pure time arithmetic over the memoized travel times (departed
// tasks drop out via the task stamps, deadline-expired ones via
// model.DeadlineFeasible), and newly arrived tasks are probed through the
// full predicate — the only distance evaluations on this path.
func (c *EngineCache) revalidate(b *Batch, wi int, cw *cachedWorker, base uint32, idx *BatchIndex, sc *buildScratch) {
	bw := &b.Workers[wi]
	n := uint32(len(b.Tasks))
	sc.set = sc.set[:0]
	sc.costs = sc.costs[:0]
	reused := 0
	for k, id := range cw.tasks {
		ti := c.tag[id] - base
		if ti >= n {
			continue // task departed
		}
		reused++
		if model.DeadlineFeasible(b.Tasks[ti], bw.ReadyAt, cw.costs[k]) {
			sc.set = append(sc.set, int32(ti))
			sc.costs = append(sc.costs, cw.costs[k])
		}
	}
	examined, admitted := 0, 0
	skills := bw.W.Skills
	mask := c.arrivals.mask
	for sk := skills.NextCommon(mask, 0); sk >= 0; sk = skills.NextCommon(mask, sk+1) {
		for _, ti := range c.arrivals.bucket(sk) {
			examined++
			t := b.Tasks[ti]
			if model.FeasibleFrom(bw.W, bw.Loc, bw.ReadyAt, bw.DistBudget, t, b.dist) {
				admitted++
				sc.set = append(sc.set, ti)
				sc.costs = append(sc.costs, bw.W.TravelTime(bw.Loc, t.Loc, b.dist))
			}
		}
	}
	// Cached entries follow the previous batch's index order and arrivals
	// interleave arbitrarily; restore ascending task-index order.
	sc.sortStrategy()
	// Every retained cached entry is a cross-batch memo hit (its travel time
	// was served from the memo instead of recomputed); only arrival probes
	// run the exact predicate, so only they count as examined and admitted.
	b.rec.AddMemoHits(int64(reused))
	b.rec.AddExamined(int64(examined))
	b.rec.AddAdmitted(int64(admitted))
	idx.strategies[wi] = sc.ints.carve(sc.set)
	idx.costs[wi] = sc.floats.carve(sc.costs)
}

// absorbWorkers snapshots the batch's worker states and strategy sets as the
// baseline for the next incremental build. The slot table, the
// cachedWorker structs, and their task/cost buffers are all reused across
// batches: present workers are updated in place, new ones take a struct
// from the free list (or a new one in store), and departed ones are swept
// into the free list. The copies are cache-owned — nothing here aliases
// the index, so later reuse cannot mutate an index a previous batch
// returned.
func (c *EngineCache) absorbWorkers(b *Batch, idx *BatchIndex) {
	c.gen++
	pooled := 0
	for wi := range b.Workers {
		bw := &b.Workers[wi]
		s := c.slot[bw.W.ID]
		if s == 0 {
			if n := len(c.free); n > 0 {
				s = c.free[n-1] + 1
				c.free = c.free[:n-1]
				pooled++
			} else {
				c.store = append(c.store, cachedWorker{})
				s = int32(len(c.store))
			}
			c.slot[bw.W.ID] = s
		}
		cw := &c.store[s-1]
		cw.loc = bw.Loc
		cw.readyAt = bw.ReadyAt
		cw.distBudget = bw.DistBudget
		cw.start, cw.wait = bw.W.Start, bw.W.Wait
		cw.velocity, cw.maxDist = bw.W.Velocity, bw.W.MaxDist
		cw.gen = c.gen

		set := idx.strategies[wi]
		if cap(cw.tasks) >= len(set) {
			cw.tasks = cw.tasks[:len(set)]
		} else {
			cw.tasks = c.ids.carveLen(len(set))
		}
		for k, ti := range set {
			cw.tasks[k] = b.Tasks[ti].ID
		}
		costs := idx.costs[wi]
		if cap(cw.costs) >= len(costs) {
			cw.costs = cw.costs[:len(costs)]
		} else {
			cw.costs = c.floats.carveLen(len(costs))
		}
		copy(cw.costs, costs)
	}
	// Sweep departed workers (workers of the last batch the loop above did
	// not restamp) into the free list, buffers attached for reuse.
	for _, id := range c.workerIDs {
		if s := c.slot[id]; s != 0 && c.store[s-1].gen != c.gen {
			c.slot[id] = 0
			c.free = append(c.free, s-1)
		}
	}
	c.workerIDs = c.workerIDs[:0]
	for wi := range b.Workers {
		c.workerIDs = append(c.workerIDs, b.Workers[wi].W.ID)
	}
	c.stats.WorkersPooled += pooled
	b.rec.SetCachePool(pooled, len(c.free))
	c.valid = true
}
