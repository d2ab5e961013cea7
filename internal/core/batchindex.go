package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// BatchIndex is the batch-scoped candidate engine: it computes every
// worker's strategy set S_w and every task's candidate-worker list for one
// batch in a single pass, replacing the O(n_b·m_b) feasibility scans that
// every allocator round used to rebuild.
//
// Three ideas combine:
//
//   - Skill buckets: pending tasks are grouped by required skill, so a
//     worker only ever examines tasks whose skill it holds (a per-skill
//     inverted list over the batch's pending subset).
//   - Spatial pruning: when the batch metric admits a Euclidean lower bound
//     (geo.EuclideanBoundScale), a geo.GridIndex over the pending task
//     locations answers "which tasks are within this worker's remaining
//     distance budget" as a radius query from the worker's *current*
//     location — the mid-simulation generalisation of the static index.
//     Whichever of the two prunings promises the smaller candidate pool is
//     used per worker; both finish with the exact model.FeasibleFrom
//     predicate, so the choice never changes the result.
//   - Travel-time memoization: the travel time of every feasible
//     (worker, task) pair is computed once, next to the feasibility check
//     that needed the distance anyway, and served to Greedy's Hungarian
//     cost rows and the baselines from the index.
//
// Construction fans out across a runtime.NumCPU()-bounded worker pool; each
// goroutine owns a disjoint range of per-worker result slots, so the output
// is deterministic and identical to the serial build.
type BatchIndex struct {
	b *Batch

	// strategies[wi] lists the pending-task indexes worker wi can feasibly
	// take, ascending; costs[wi] holds the aligned travel times.
	strategies [][]int32
	costs      [][]float64
	// candidates[ti] lists the batch worker indexes that can feasibly take
	// pending task ti, ascending.
	candidates [][]int32
}

// minParallelWorkers gates the goroutine fan-out: below this many batch
// workers the pool's setup cost exceeds the scan it parallelises.
const minParallelWorkers = 64

// buildChunk is how many workers a pool goroutine claims per atomic
// increment.
const buildChunk = 16

// newBatchIndex builds the engine for one batch with a
// runtime.NumCPU()-bounded worker pool. Cost: O(Σ_w pool_w) exact
// feasibility checks, where pool_w is the pruned candidate pool of worker w.
func newBatchIndex(b *Batch) *BatchIndex {
	return newBatchIndexN(b, runtime.NumCPU())
}

// newBatchIndexN is newBatchIndex with an explicit pool bound, so tests can
// force the concurrent path on any machine.
func newBatchIndexN(b *Batch, procs int) *BatchIndex {
	idx := &BatchIndex{
		b:          b,
		strategies: make([][]int32, len(b.Workers)),
		costs:      make([][]float64, len(b.Workers)),
		candidates: make([][]int32, len(b.Tasks)),
	}
	if len(b.Workers) == 0 || len(b.Tasks) == 0 {
		return idx
	}

	// Skill buckets over the pending tasks. Each task has exactly one
	// required skill, so the buckets partition the batch (less the tasks no
	// batch worker can take).
	ps := prunedScan{buckets: new(skillBuckets)}
	ps.buckets.buildAll(b, skillLimit(b))

	// Spatial grid over the pending task locations, keyed by task index,
	// when the metric allows Euclidean pruning. boxScale converts a metric
	// radius into a Euclidean one; density estimates how many tasks an
	// average unit-area disc would return, for the per-worker pruning
	// choice.
	if scale, ok := geo.EuclideanBoundScale(b.In.Dist); ok {
		box := pendingBBox(b)
		ps.grid = geo.NewGridIndex(box, len(b.Tasks)+1)
		for ti, t := range b.Tasks {
			ps.grid.Insert(ti, t.Loc)
		}
		ps.boxScale = scale
		area := box.Width() * box.Height()
		if area <= 0 {
			area = 1e-18
		}
		ps.density = float64(len(b.Tasks)) / area
	}

	scs := fanOut(len(b.Workers), procs, func(wi int, sc *buildScratch) { ps.scan(b, wi, idx, sc) })
	for p := range scs {
		scs[p].flushArena(b)
	}

	idx.invertStrategies()
	return idx
}

// fanOut runs work(wi, sc) for every wi in [0, nw) over up to procs
// goroutines, each claiming buildChunk workers per atomic increment and
// owning one scratch, and returns the scratches for the caller to flush.
// Below minParallelWorkers, or with one proc, it runs serially on one
// scratch. Work for wi must depend only on wi's inputs and write only wi's
// slots, so the result does not depend on scheduling.
func fanOut[S any](nw, procs int, work func(wi int, sc *S)) []S {
	procs = min(procs, (nw+buildChunk-1)/buildChunk)
	if nw < minParallelWorkers || procs <= 1 {
		scs := make([]S, 1)
		for wi := 0; wi < nw; wi++ {
			work(wi, &scs[0])
		}
		return scs
	}
	scs := make([]S, procs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for p := range scs {
		wg.Add(1)
		go func(sc *S) {
			defer wg.Done()
			for {
				lo := int(next.Add(buildChunk)) - buildChunk
				if lo >= nw {
					return
				}
				hi := min(lo+buildChunk, nw)
				for wi := lo; wi < hi; wi++ {
					work(wi, sc)
				}
			}
		}(&scs[p])
	}
	wg.Wait()
	return scs
}

// skillBuckets groups pending-task indexes by required skill in one CSR
// table indexed by Skill: bucket sk is dat[off[sk]:off[sk+1]]. mask holds
// the skills of the non-empty buckets, so a worker's skill walk is the
// allocation-free intersection of its skill set with mask
// (model.SkillSet.NextCommon). Tasks whose skill no batch worker holds —
// negative, or above every worker's highest skill — are left out: no worker
// can take them, and bounding the table by the workers' skills keeps an
// absurd skill ID in an unvalidated instance from sizing it. The buffers
// are reused build over build.
type skillBuckets struct {
	off  []int32
	dat  []int32
	mask model.SkillSet
}

// skillLimit returns one past the highest skill any batch worker holds.
func skillLimit(b *Batch) model.Skill {
	lim := model.Skill(0)
	for i := range b.Workers {
		lim = max(lim, b.Workers[i].W.Skills.Max()+1)
	}
	return lim
}

// buildAll fills the buckets with every pending task of b, ascending.
func (sb *skillBuckets) buildAll(b *Batch, limit model.Skill) {
	sb.build(b, len(b.Tasks), func(k int) int32 { return int32(k) }, limit)
}

// buildSel fills the buckets with the pending-task indexes sel, in sel's
// order.
func (sb *skillBuckets) buildSel(b *Batch, sel []int32, limit model.Skill) {
	sb.build(b, len(sel), func(k int) int32 { return sel[k] }, limit)
}

// build fills the buckets with the n pending-task indexes at(0) … at(n-1).
func (sb *skillBuckets) build(b *Batch, n int, at func(k int) int32, limit model.Skill) {
	for sk := sb.mask.NextCommon(sb.mask, 0); sk >= 0; sk = sb.mask.NextCommon(sb.mask, sk+1) {
		sb.mask.Remove(sk)
	}
	// Count bucket sk into off[sk+2], so the prefix sum leaves bucket sk's
	// start in off[sk+1] and the fill, bumping off[sk+1] as a cursor, ends
	// with it at bucket sk's end.
	sb.off = grown(sb.off, int(limit)+2)
	clear(sb.off)
	for k := 0; k < n; k++ {
		if sk := b.Tasks[at(k)].Requires; sk >= 0 && sk < limit {
			sb.off[sk+2]++
		}
	}
	for sk := model.Skill(0); sk < limit; sk++ {
		if sb.off[sk+2] > 0 {
			sb.mask.Add(sk)
		}
		sb.off[sk+2] += sb.off[sk+1]
	}
	sb.dat = grown(sb.dat, int(sb.off[limit+1]))
	for k := 0; k < n; k++ {
		ti := at(k)
		if sk := b.Tasks[ti].Requires; sk >= 0 && sk < limit {
			sb.dat[sb.off[sk+1]] = ti
			sb.off[sk+1]++
		}
	}
}

// bucket returns the pending-task indexes requiring sk; sk must be in mask.
func (sb *skillBuckets) bucket(sk model.Skill) []int32 {
	return sb.dat[sb.off[sk]:sb.off[sk+1]]
}

// prunedScan is one batch's pruned candidate source, shared by the
// from-scratch build and the cache's worker rebuilds: skill buckets over
// the pending tasks and, when the metric admits a Euclidean lower bound, a
// grid over their locations. The from-scratch grid is keyed by task index;
// the cache's maintained grid is keyed by task ID, which pos maps back to
// an index (pos[id]-base < len(b.Tasks), see EngineCache.tag). pos is nil
// for index keys.
type prunedScan struct {
	buckets  *skillBuckets
	grid     *geo.GridIndex
	boxScale float64
	density  float64
	pos      []uint32
	base     uint32
}

// scan computes batch worker wi's strategy set through whichever pruning
// promises the smaller pool — its skill buckets, or a radius query around
// its location — and carves it into idx. Both finish with the exact
// model.FeasibleFrom predicate, so the choice never changes the result.
func (ps *prunedScan) scan(b *Batch, wi int, idx *BatchIndex, sc *buildScratch) {
	bw := &b.Workers[wi]
	skills := bw.W.Skills
	mask := ps.buckets.mask
	sc.set = sc.set[:0]
	sc.costs = sc.costs[:0]
	examined := 0
	appendFeasible := func(ti int32) {
		examined++
		t := b.Tasks[ti]
		if model.FeasibleFrom(bw.W, bw.Loc, bw.ReadyAt, bw.DistBudget, t, b.dist) {
			sc.set = append(sc.set, ti)
			sc.costs = append(sc.costs, bw.W.TravelTime(bw.Loc, t.Loc, b.dist))
		}
	}
	// Size of the skill-bucket pool for this worker.
	skillPool := 0
	for sk := skills.NextCommon(mask, 0); sk >= 0; sk = skills.NextCommon(mask, sk+1) {
		skillPool += len(ps.buckets.bucket(sk))
	}
	// Expected size of the radius-query pool: disc area × task density,
	// capped at the batch size.
	useGrid := false
	if ps.grid != nil {
		r := ps.boxScale * (bw.DistBudget + model.DistEps)
		discPool := min(math.Pi*r*r*ps.density, float64(len(b.Tasks)))
		useGrid = discPool < float64(skillPool)
	}
	if useGrid {
		sc.grid = ps.grid.Within(bw.Loc, ps.boxScale*(bw.DistBudget+model.DistEps), sc.grid[:0])
		n := uint32(len(b.Tasks))
		for _, key := range sc.grid {
			ti := int32(key)
			if ps.pos != nil {
				p := ps.pos[key] - ps.base
				if p >= n {
					continue
				}
				ti = int32(p)
			}
			if skills.Has(b.Tasks[ti].Requires) {
				appendFeasible(ti)
			}
		}
	} else {
		for sk := skills.NextCommon(mask, 0); sk >= 0; sk = skills.NextCommon(mask, sk+1) {
			for _, ti := range ps.buckets.bucket(sk) {
				appendFeasible(ti)
			}
		}
	}
	// Grid hits come back in cell order and buckets of different skills
	// interleave task indexes.
	sc.sortStrategy()
	// Two nil-safe recorder calls per worker (not per pair): the counts
	// accumulate locally above, so the disabled path costs two nil checks
	// per worker.
	b.rec.AddExamined(int64(examined))
	b.rec.AddAdmitted(int64(len(sc.set)))
	idx.strategies[wi] = sc.ints.carve(sc.set)
	idx.costs[wi] = sc.floats.carve(sc.costs)
}

// invertStrategies derives the per-task candidate lists from the strategy
// sets. Iterating workers ascending keeps every list ascending without a
// sort. Shared by the from-scratch build and the incremental EngineCache
// build so both produce structurally identical indexes. All lists are
// carved out of one backing array sized by the exact per-task counts, so
// the inversion costs two allocations, not one per task.
func (idx *BatchIndex) invertStrategies() {
	counts := make([]int32, len(idx.candidates))
	total := 0
	for wi := range idx.strategies {
		for _, ti := range idx.strategies[wi] {
			counts[ti]++
		}
		total += len(idx.strategies[wi])
	}
	backing := make([]int32, total)
	off := 0
	for ti, n := range counts {
		if n > 0 {
			idx.candidates[ti] = backing[off : off : off+int(n)]
			off += int(n)
		}
	}
	for wi := range idx.strategies {
		for _, ti := range idx.strategies[wi] {
			idx.candidates[ti] = append(idx.candidates[ti], int32(wi))
		}
	}
}

// pendingBBox returns a box covering the batch's pending task locations.
func pendingBBox(b *Batch) geo.BBox {
	box := geo.BBox{Min: b.Tasks[0].Loc, Max: b.Tasks[0].Loc}
	for _, t := range b.Tasks[1:] {
		p := t.Loc
		if p.X < box.Min.X {
			box.Min.X = p.X
		}
		if p.Y < box.Min.Y {
			box.Min.Y = p.Y
		}
		if p.X > box.Max.X {
			box.Max.X = p.X
		}
		if p.Y > box.Max.Y {
			box.Max.Y = p.Y
		}
	}
	return box
}

// strategyByIndex sorts a strategy set ascending by task index, keeping the
// cost slice aligned. The methods take a pointer receiver so a scratch-held
// instance converts to sort.Interface without boxing a fresh value per
// worker (sortStrategyByIndex is the single conversion site).
type strategyByIndex struct {
	set   []int32
	costs []float64
}

func (s *strategyByIndex) Len() int           { return len(s.set) }
func (s *strategyByIndex) Less(i, j int) bool { return s.set[i] < s.set[j] }
func (s *strategyByIndex) Swap(i, j int) {
	s.set[i], s.set[j] = s.set[j], s.set[i]
	s.costs[i], s.costs[j] = s.costs[j], s.costs[i]
}

func sortStrategyByIndex(s *strategyByIndex) { sort.Sort(s) }

// StrategySet returns worker wi's feasible pending-task indexes, ascending.
// The slice is shared with the index — callers must not mutate it.
func (idx *BatchIndex) StrategySet(wi int) []int32 { return idx.strategies[wi] }

// CandidateSet returns the batch worker indexes that can feasibly take
// pending task ti, ascending. The slice is shared — callers must not mutate
// it.
func (idx *BatchIndex) CandidateSet(ti int) []int32 { return idx.candidates[ti] }

// TravelCost returns the travel time for batch worker wi to reach pending
// task ti, served from the memo for feasible pairs and computed directly
// otherwise.
func (idx *BatchIndex) TravelCost(wi, ti int) float64 {
	set := idx.strategies[wi]
	lo, hi := 0, len(set)
	for lo < hi {
		mid := (lo + hi) / 2
		if set[mid] < int32(ti) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(set) && set[lo] == int32(ti) {
		idx.b.rec.AddMemoHits(1)
		return idx.costs[wi][lo]
	}
	idx.b.rec.AddMemoMisses(1)
	return idx.b.TravelCost(wi, idx.b.Tasks[ti])
}

// FeasiblePairs returns the number of feasible (worker, task) pairs the
// index holds — the size of the bipartite candidacy graph.
func (idx *BatchIndex) FeasiblePairs() int {
	n := 0
	for _, s := range idx.strategies {
		n += len(s)
	}
	return n
}

// VerifyIndex rebuilds the batch's candidate engine from scratch and returns
// a description of the first divergence from the installed index, or nil.
// It is the differential cross-check for incrementally maintained indexes
// (EngineCache), the same pattern ScanStrategySets provides for the pruned
// single-batch build: the incremental and from-scratch engines must agree
// exactly — sets, memoized costs, and candidate lists.
func (b *Batch) VerifyIndex() error {
	got := b.Index()
	// The reference rebuild is bookkeeping, not batch work: hide the
	// recorder so verification doesn't double-count the build.
	saved := b.rec
	b.rec = nil
	want := newBatchIndex(b)
	b.rec = saved
	for wi := range want.strategies {
		if !int32SlicesEqual(got.strategies[wi], want.strategies[wi]) {
			return fmt.Errorf("core: worker %d strategy set diverges: incremental %v, fresh %v",
				wi, got.strategies[wi], want.strategies[wi])
		}
		if !float64SlicesEqual(got.costs[wi], want.costs[wi]) {
			return fmt.Errorf("core: worker %d travel-cost memo diverges: incremental %v, fresh %v",
				wi, got.costs[wi], want.costs[wi])
		}
	}
	for ti := range want.candidates {
		if !int32SlicesEqual(got.candidates[ti], want.candidates[ti]) {
			return fmt.Errorf("core: task %d candidate list diverges: incremental %v, fresh %v",
				ti, got.candidates[ti], want.candidates[ti])
		}
	}
	return nil
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// float64SlicesEqual compares bit-for-bit (the incremental build memoizes
// the exact floats the fresh build computes; no tolerance is needed).
func float64SlicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
