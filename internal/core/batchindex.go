package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"dasc/internal/model"
)

// BatchIndex is the batch-scoped candidate engine: it computes every
// worker's strategy set S_w and every task's candidate-worker list for one
// batch in a single pass, replacing the O(n_b·m_b) feasibility scans that
// every allocator round used to rebuild.
//
// Two ideas combine:
//
//   - Skill buckets: pending tasks are grouped by required skill, so a
//     worker only ever examines tasks whose skill it holds (a per-skill
//     inverted list over the batch's pending subset), and every examined
//     pair goes through the exact model.FeasibleFrom predicate.
//   - Travel-time memoization: the travel time of every feasible
//     (worker, task) pair is computed once, next to the feasibility check
//     that needed the distance anyway, and served to Greedy's Hungarian
//     cost rows and the baselines from the index.
//
// Construction fans out across a runtime.NumCPU()-bounded worker pool; each
// goroutine owns a disjoint range of per-worker result slots, so the output
// is deterministic and identical to the serial build. The index and all its
// arrays live in the batch's step arena and are rebuilt in place.
type BatchIndex struct {
	b *Batch

	// strategies[wi] lists the pending-task indexes worker wi can feasibly
	// take, ascending; costs[wi] holds the aligned travel times.
	strategies [][]int32
	costs      [][]float64
	// candidates[ti] lists the batch worker indexes that can feasibly take
	// pending task ti, ascending, carved from candBacking; candCount is the
	// inversion's per-task count.
	candidates  [][]int32
	candBacking []int32
	candCount   []int32
}

// minParallelWorkers gates the goroutine fan-out: below this many batch
// workers the pool's setup cost exceeds the scan it parallelises.
const minParallelWorkers = 64

// buildChunk is how many workers a pool goroutine claims per atomic
// increment.
const buildChunk = 16

// newBatchIndex builds the engine for one batch, worker-major with a
// runtime.NumCPU()-bounded worker pool or skill first (chooseBuild). Cost:
// O(Σ_w pool_w) exact feasibility checks, where pool_w is the number of
// pending tasks requiring a skill of worker w.
func newBatchIndex(b *Batch) *BatchIndex {
	return newBatchIndexN(b, runtime.NumCPU())
}

// newBatchIndexN is newBatchIndex with an explicit pool bound, so tests can
// force the concurrent path on any machine.
func newBatchIndexN(b *Batch, procs int) *BatchIndex {
	a := b.arena
	idx := &a.idx
	idx.b = b
	idx.strategies = grown(idx.strategies, len(b.Workers))
	clear(idx.strategies)
	idx.costs = grown(idx.costs, len(b.Workers))
	clear(idx.costs)
	idx.candidates = grown(idx.candidates, len(b.Tasks))
	clear(idx.candidates)
	if len(b.Workers) == 0 || len(b.Tasks) == 0 {
		return idx
	}

	// Skill buckets over the pending tasks. Each task has exactly one
	// required skill, so the buckets partition the batch (less the tasks no
	// batch worker can take).
	a.buckets.build(b, skillLimit(b))
	a.built = a.chooseBuild(b)
	if a.built == buildSkillFirst {
		a.scanHolders(b, idx)
	} else {
		fanOut(len(b.Workers), procs, a, func(wi int, sc *buildScratch) { a.scanWorker(b, wi, idx, sc) })
	}
	idx.invertStrategies()
	return idx
}

// candidateBuild names how newBatchIndexN finds a batch's candidate pairs.
type candidateBuild uint8

const (
	// buildAuto is no build: it leaves the choice to the size rule.
	buildAuto candidateBuild = iota
	// buildWorkerMajor scans every batch worker's skill buckets
	// (scanWorker).
	buildWorkerMajor
	// buildSkillFirst reads the holders of the batch's task skills from
	// the kernel's per-skill lists (scanHolders).
	buildSkillFirst
)

// chooseBuild picks the batch's candidate build. Skill first needs the
// kernel's per-skill lists, and pays off only when the holders of the
// batch's task skills number fewer than its workers: the worker-major
// scan walks every batch worker's skill set, the skill-first build every
// holder of a task skill, busy ones included. Both probe the same pairs,
// so the rule moves only cost.
func (a *stepArena) chooseBuild(b *Batch) candidateBuild {
	switch {
	case a.holders == nil:
		return buildWorkerMajor
	case a.force != buildAuto:
		return a.force
	case a.holders.fewer(b.In, a.buckets.mask, len(b.Workers)):
		return buildSkillFirst
	}
	return buildWorkerMajor
}

// scanHolders builds the strategy sets skill first: for every task skill,
// every holder that is a batch worker paired with every task of the
// skill's bucket. Each task requires one skill and a list holds a worker
// once, so no pair repeats; sorting the pairs groups them by worker and
// orders each worker's row by task index, and the exact predicate keeps
// the feasible ones. The rows, costs and examined and admitted counts are
// the worker-major scan's: both probe every batch worker's skill pool.
func (a *stepArena) scanHolders(b *Batch, idx *BatchIndex) {
	pairs := a.pairs[:0]
	mask := a.buckets.mask
	for sk := mask.NextCommon(mask, 0); sk >= 0; sk = mask.NextCommon(mask, sk+1) {
		bucket := a.buckets.bucket(sk)
		for _, id := range a.holders.of(b.In, sk) {
			wi := b.WorkerIndex(model.WorkerID(id))
			if wi < 0 {
				continue
			}
			for _, ti := range bucket {
				pairs = append(pairs, uint64(wi)<<32|uint64(ti))
			}
		}
	}
	slices.Sort(pairs)
	a.pairs = pairs
	if len(a.scratches) == 0 {
		a.scratches = append(a.scratches, buildScratch{})
	}
	sc := &a.scratches[0]
	admitted := 0
	for lo := 0; lo < len(pairs); {
		wi := int(pairs[lo] >> 32)
		bw := &b.Workers[wi]
		off := len(sc.rows)
		for ; lo < len(pairs) && int(pairs[lo]>>32) == wi; lo++ {
			sc.appendFeasible(b, bw, int32(pairs[lo]))
		}
		admitted += idx.setRow(wi, sc, off)
	}
	b.rec.AddExamined(int64(len(pairs)))
	b.rec.AddAdmitted(int64(admitted))
}

// fanOut runs work(wi, sc) for every wi in [0, nw) over up to procs
// goroutines, each claiming buildChunk workers per atomic increment and
// owning one of the arena's build scratches. Below minParallelWorkers, or with one proc, it
// runs serially on one scratch. Work for wi must depend only on wi's inputs
// and write only wi's slots, so the result does not depend on scheduling.
func fanOut(nw, procs int, a *stepArena, work func(wi int, sc *buildScratch)) {
	procs = min(procs, (nw+buildChunk-1)/buildChunk)
	if nw < minParallelWorkers || procs <= 1 {
		procs = 1
	}
	for len(a.scratches) < procs {
		a.scratches = append(a.scratches, buildScratch{})
	}
	scs := a.scratches[:procs]
	if procs == 1 {
		for wi := 0; wi < nw; wi++ {
			work(wi, &scs[0])
		}
		return
	}
	next, wg := &a.buildNext, &a.buildWG
	next.Store(0)
	for p := range scs {
		wg.Add(1)
		go func(sc *buildScratch) {
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
}

// skillBuckets groups pending-task indexes by required skill in one CSR
// table indexed by Skill: bucket sk is dat[off[sk]:off[sk+1]]. mask holds
// the skills of the non-empty buckets, so a worker's skill walk is the
// allocation-free intersection of its skill set with mask
// (model.SkillSet.NextCommon). Tasks whose skill no batch worker holds —
// negative, or above every worker's highest skill — are left out: no worker
// can take them, and bounding the table by the workers' skills keeps an
// absurd skill ID in an unvalidated instance from sizing it.
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

// build buckets every pending task of b below limit, ascending, reusing
// the table's arrays.
func (sb *skillBuckets) build(b *Batch, limit model.Skill) {
	// Count bucket sk into off[sk+2], so the prefix sum leaves bucket sk's
	// start in off[sk+1] and the fill, bumping off[sk+1] as a cursor, ends
	// with it at bucket sk's end.
	sb.off = grown(sb.off, int(limit)+2)
	clear(sb.off)
	sb.mask.Clear()
	for _, t := range b.Tasks {
		if sk := t.Requires; sk >= 0 && sk < limit {
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
	for ti, t := range b.Tasks {
		if sk := t.Requires; sk >= 0 && sk < limit {
			sb.dat[sb.off[sk+1]] = int32(ti)
			sb.off[sk+1]++
		}
	}
}

// bucket returns the pending-task indexes requiring sk; sk must be in mask.
func (sb *skillBuckets) bucket(sk model.Skill) []int32 {
	return sb.dat[sb.off[sk]:sb.off[sk+1]]
}

// scanWorker computes batch worker wi's strategy set from the skill
// buckets of the skills it holds and appends it to the scratch's rows for
// idx. It reads the arena's buckets and writes only wi's slots, so fanOut
// may run it for many workers at once.
func (a *stepArena) scanWorker(b *Batch, wi int, idx *BatchIndex, sc *buildScratch) {
	bw := &b.Workers[wi]
	skills := bw.W.Skills
	mask := a.buckets.mask
	off := len(sc.rows)
	examined := 0
	for sk := skills.NextCommon(mask, 0); sk >= 0; sk = skills.NextCommon(mask, sk+1) {
		bucket := a.buckets.bucket(sk)
		examined += len(bucket)
		for _, ti := range bucket {
			sc.appendFeasible(b, bw, ti)
		}
	}
	// Buckets of different skills interleave task indexes.
	sc.sortRow(off)
	// Two nil-safe recorder calls per worker (not per pair): the counts
	// accumulate locally above, so the disabled path costs two nil checks
	// per worker.
	b.rec.AddExamined(int64(examined))
	b.rec.AddAdmitted(int64(idx.setRow(wi, sc, off)))
}

// appendFeasible appends pending task ti and its travel time to the
// scratch's rows when batch worker bw can take it.
func (sc *buildScratch) appendFeasible(b *Batch, bw *BatchWorker, ti int32) {
	t := b.Tasks[ti]
	if model.FeasibleFrom(bw.W, bw.Loc, bw.ReadyAt, bw.DistBudget, t, b.dist) {
		sc.rows = append(sc.rows, ti)
		sc.costs = append(sc.costs, bw.W.TravelTime(bw.Loc, t.Loc, b.dist))
	}
}

// setRow installs the scratch's rows from off on as worker wi's strategy
// set and costs, and returns its length.
func (idx *BatchIndex) setRow(wi int, sc *buildScratch, off int) int {
	n := len(sc.rows)
	if n > off {
		idx.strategies[wi] = sc.rows[off:n:n]
		idx.costs[wi] = sc.costs[off:n:n]
	}
	return n - off
}

// invertStrategies derives the per-task candidate lists from the strategy
// sets. Iterating workers ascending keeps every list ascending without a
// sort. All lists are carved out of one backing array sized by the exact
// per-task counts, both reused from batch to batch.
func (idx *BatchIndex) invertStrategies() {
	idx.candCount = grown(idx.candCount, len(idx.candidates))
	counts := idx.candCount
	clear(counts)
	total := 0
	for wi := range idx.strategies {
		for _, ti := range idx.strategies[wi] {
			counts[ti]++
		}
		total += len(idx.strategies[wi])
	}
	idx.candBacking = grown(idx.candBacking, total)
	backing := idx.candBacking
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

// VerifyIndex checks the batch's installed candidate engine against the
// brute-force reference and returns a description of the first divergence,
// or nil: strategy sets against ScanStrategySets, memoized travel costs
// against Batch.TravelCost, and candidate lists against
// ScanCandidateWorkers. The reference shares only the exact feasibility
// predicate with the pruned build, so this is the differential cross-check
// behind KernelConfig.VerifyEngineCache.
func (b *Batch) VerifyIndex() error {
	got := b.Index()
	for wi, want := range b.ScanStrategySets() {
		if !sameIndexes(got.strategies[wi], want) {
			return fmt.Errorf("core: worker %d strategy set diverges: index %v, scan %v",
				wi, got.strategies[wi], want)
		}
		if len(got.costs[wi]) != len(want) {
			return fmt.Errorf("core: worker %d travel-cost memo holds %d costs for %d tasks",
				wi, len(got.costs[wi]), len(want))
		}
		for k, ti := range want {
			if c := b.TravelCost(wi, b.Tasks[ti]); got.costs[wi][k] != c {
				return fmt.Errorf("core: worker %d travel-cost memo diverges at task %d: index %v, scan %v",
					wi, ti, got.costs[wi][k], c)
			}
		}
	}
	for ti, t := range b.Tasks {
		if want := b.ScanCandidateWorkers(t); !sameIndexes(got.candidates[ti], want) {
			return fmt.Errorf("core: task %d candidate list diverges: index %v, scan %v",
				ti, got.candidates[ti], want)
		}
	}
	return nil
}

// sameIndexes reports whether an index list equals its scanned reference.
func sameIndexes(got []int32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if int(got[i]) != want[i] {
			return false
		}
	}
	return true
}
