package core

import (
	"slices"

	"dasc/internal/model"
)

// depWiring is the batch's dependency structure, resolved once: every
// pending task's unsatisfied dependencies as pending-task indexes, the
// inverse relation, and the per-task counts, weights and liveness
// preconditions. Equation 3 is evaluated over it, DASC_Greedy's associative
// sets read it, and so does ExactDP's closure check. It depends only on the batch's task list and
// satisfied set — never on strategies — so it is built once per batch
// (Batch.depWiring) into the batch's step arena and shared read-only,
// including by the paired runs of VerifyWorklist and repeated Assign calls
// in benchmarks.
type depWiring struct {
	// deps(ti) = depDat[depOff[ti]:depOff[ti+1]] lists the pending-task
	// indexes of ti's unsatisfied dependencies, deduplicated, in first-listed
	// order; dependants(ti) is the inverse relation. satisfiedDeps[ti] counts
	// dependencies met by earlier batches. A dependency outside the batch and
	// not satisfied makes the task permanently dead this batch (deadTask).
	depOff       []int32
	depDat       []int32
	dependantOff []int32
	dependantDat []int32

	depCount      []int32 // |D_t| (full dependency-set size, for the α·|D_t| share)
	deadTask      []bool
	satisfiedDeps []int32
	weight        []float64 // effective task weights (1 in the paper's setting)
}

// depWiring returns the batch's dependency wiring, building it on first use.
// Like Index, the result is immutable and safe for concurrent readers.
func (b *Batch) depWiring() *depWiring {
	b.wireOnce.Do(func() { b.wire = b.arena.buildWiring(b) })
	return b.wire
}

// depScratch is the task-ID-indexed table of a step arena: newBatch marks
// the pending tasks in it (Batch.TaskIndex reads them), and the wiring
// build deduplicates dependencies through it. tag is indexed by task ID and
// only grows, to cover every task of the largest instance seen (and any
// higher pending ID); last is indexed by pending task index. Nothing is
// cleared between batches: each batch reserves 2n fresh stamps above every
// stamp written before, so entries left by earlier batches never match, and
// a batch costs O(pending + Σ|D_t|) however many tasks the instance has
// registered, plus the amortised growth of tag.
//
// With base the batch's first stamp and n its pending count:
// tag[id] == base+i means id is pending at index i < n, and
// tag[id] == base+n+ti means id is a dependency outside the batch that task
// ti has already counted.
type depScratch struct {
	idStamps
	last []int32 // pending index -> last task index whose deps counted it
}

// begin marks the pending tasks of a batch over instance in and returns the
// batch's base stamp, leaving base+n … base+2n-1 to the per-task
// deduplication. Pending tasks with a negative ID cannot be indexed, so
// dependencies on them resolve as not pending (Validate rejects such IDs,
// and the server numbers tasks by position).
func (sc *depScratch) begin(in *model.Instance, tasks []*model.Task) uint32 {
	n := len(tasks)
	size := len(in.Tasks)
	for _, t := range tasks {
		size = max(size, int(t.ID)+1)
	}
	base := sc.reserve(size, 2*n)
	for i, t := range tasks {
		if t.ID >= 0 {
			sc.tag[t.ID] = base + uint32(i)
		}
	}
	return base
}

// buildWiring assembles the batch's wiring into the arena: one pass over
// the tasks' dependency lists, resolved and deduplicated through the
// ID-indexed scratch, to produce the dep CSR, then a count/prefix/fill
// inversion into the dependant CSR.
func (a *stepArena) buildWiring(b *Batch) *depWiring {
	n := len(b.Tasks)
	w := &a.wire
	w.depOff = grown(w.depOff, n+1)
	w.depOff[0] = 0
	w.depDat = w.depDat[:0]
	w.dependantOff = grown(w.dependantOff, n+1)
	w.depCount = grown(w.depCount, n)
	clear(w.depCount)
	w.deadTask = grown(w.deadTask, n)
	clear(w.deadTask)
	w.satisfiedDeps = grown(w.satisfiedDeps, n)
	clear(w.satisfiedDeps)
	w.weight = grown(w.weight, n)

	sc := &a.taskIDs
	sc.last = grown(sc.last, n)
	for i := range sc.last {
		sc.last[i] = -1
	}
	base := b.taskBase
	// Duplicate dependency entries (possible in instances that bypass
	// Validate) are collapsed so |D_t| and the dependant lists stay true to
	// the set semantics of Equation 3: a pending dependency through last, one
	// outside the batch through its tag, and one whose ID is negative or
	// beyond the instance (never pending; Validate rejects both) by a scan
	// of the entries before it. Stamps of earlier builds lie below base, so
	// tag-base wraps past n for them.
	for ti, t := range b.Tasks {
		w.weight[ti] = t.EffWeight()
		stamp := base + uint32(n+ti)
		for k, d := range t.Deps {
			di := int32(-1)
			switch {
			case d < 0 || int(d) >= len(sc.tag):
				if slices.Contains(t.Deps[:k], d) {
					continue
				}
			case sc.tag[d]-base < uint32(n):
				di = int32(sc.tag[d] - base)
				if sc.last[di] == int32(ti) {
					continue
				}
				sc.last[di] = int32(ti)
			case sc.tag[d] == stamp:
				continue
			default:
				sc.tag[d] = stamp
			}
			w.depCount[ti]++
			if b.Satisfied.Has(d) {
				w.satisfiedDeps[ti]++
				continue
			}
			if di < 0 {
				w.deadTask[ti] = true
				continue
			}
			w.depDat = append(w.depDat, di)
		}
		w.depOff[ti+1] = int32(len(w.depDat))
	}

	// Invert into the dependant CSR: count, prefix-sum, fill. Scanning tasks
	// ascending keeps every dependant list ascending.
	a.wireCnt = grown(a.wireCnt, n)
	cnt := a.wireCnt
	clear(cnt)
	for _, di := range w.depDat {
		cnt[di]++
	}
	off := int32(0)
	for ti := 0; ti < n; ti++ {
		w.dependantOff[ti] = off
		off += cnt[ti]
	}
	w.dependantOff[n] = off
	w.dependantDat = grown(w.dependantDat, int(off))
	copy(cnt, w.dependantOff[:n])
	for ti := 0; ti < n; ti++ {
		for _, di := range w.deps(ti) {
			w.dependantDat[cnt[di]] = int32(ti)
			cnt[di]++
		}
	}
	return w
}

// deps returns the pending-task indexes of ti's unsatisfied dependencies.
func (w *depWiring) deps(ti int) []int32 {
	return w.depDat[w.depOff[ti]:w.depOff[ti+1]]
}

// dependants returns the pending-task indexes that depend on ti, ascending.
func (w *depWiring) dependants(ti int) []int32 {
	return w.dependantDat[w.dependantOff[ti]:w.dependantOff[ti+1]]
}
