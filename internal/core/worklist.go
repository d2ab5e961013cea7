package core

// gameWorklist is the incremental bookkeeping of the worklist best-response
// engine (DESIGN.md §3.11).
//
// utility(ti, cur) reads the claim state of readSet(ti) = {ti} ∪ deps(ti) ∪
// dependants(ti) ∪ deps(dependants(ti)) — but almost all of those reads are
// liveness booleans, not raw counts. Exhaustively:
//
//   - exact counts of ti and cur only (the 1/nw share and the deviation
//     perturbation);
//   - a_x = [claims[x] > 0] for x ∈ deps(ti) ∪ dependants(ti);
//   - ∏ a_f over deps(li) for li ∈ {ti} ∪ dependants(ti) — equivalently the
//     booleans [deficit(li) == 0] and [deficit(li) == 1], where deficit(li)
//     counts li's unclaimed in-batch dependencies (the ==1 form arises when
//     the deviation itself revives the dependency ti ∈ deps(li)).
//
// So instead of precomputing task→affected-task sets (quadratic on
// dependency-dense batches: deps(dependants(x)) alone reaches ~|deps|² tasks),
// the worklist maintains deficit(·) incrementally and propagates dirtiness at
// boolean granularity:
//
//   - any count change of claims[x] dirties CandidateSet(x) — the only
//     workers that evaluate x or hold it as their current claim;
//   - a liveness flip of x additionally dirties the candidates of deps(x)
//     (their dependant sums read a_x) and adjusts deficit(li) for every
//     li ∈ dependants(x); only when that deficit crosses the {0,1} read
//     window does the flip propagate further, to the candidates of li and of
//     deps(li).
//
// A clean worker's evaluation would read identical counts and identical
// booleans, recompute identical floats, and pick the identical argmax — so
// skipping it is bit-exact with the naive sweep, and skipping consumes no
// RNG draws.
//
// The same observation makes whole evaluations shareable across workers.
// Every cur-dependent correction in utility(ti, cur) is gated on the current
// task actually dying under the deviation (claims[cur] == 1; with
// claims[cur] ≥ 2 the −1 perturbation can neither kill cur nor change any
// deficit), so for the common worker whose current task has co-claimants,
// utility(ti, cur) is a pure function of ti under the frozen claim state.
// The worklist therefore keeps two per-task caches between moves:
//
//	curU[ti] = utility(ti, ti) — the baseline of every claimant of ti;
//	movU[ti] = utility(ti, ·)  — the deviation value for any worker whose
//	           current task survives its departure.
//
// Both are invalidated exactly where worker dirtiness is derived
// (dirtyReaders — a task whose eval inputs changed invalidates its cached
// evals), and a cache hit returns the bit-identical float the evaluation
// would recompute, so the argmax sequence is unchanged. Sole claimants
// (claims[cur] == 1) take the corrected slow path: utilityMove applies the
// deviation corrections through the maintained deficits plus a
// generation-stamped dependants(cur) membership test, evaluating Equation 3
// with the same float expressions, inclusion booleans and summation order as
// gameState.utility — bit-identical values without the per-dependant
// dependency re-scan.
type gameWorklist struct {
	// liveDeficit[ti] = number of ti's unsatisfied in-batch dependencies
	// currently unclaimed; deps all live ⟺ deficit == 0 (and !deadTask).
	liveDeficit []int32

	// liveDeps[ti] is the sublist of dependants(ti) that can contribute a
	// dependant term at all: claimed and not dead. Kept ascending by sorted
	// insertion on liveness flips, so iterating it visits the contributing
	// dependants in exactly the CSR order the naive scan uses — the skipped
	// entries add nothing, so the float summation is unchanged while the
	// scans shrink to the live fraction of each dependant list. Each list
	// is a window of liveDat over dependants(ti)'s CSR range, capped there,
	// so insertions never reallocate.
	liveDeps [][]int32
	liveDat  []int32

	// stamp/gen: generation-stamped membership scratch marking
	// dependants(cur) during a sole-claimant evaluation, giving O(1)
	// "cur ∈ deps(li)" tests for the deviation corrections. Bumping gen
	// clears in O(1).
	stamp []uint32
	gen   uint32

	// dirty marks workers whose best response must be re-evaluated; clean
	// workers are skipped (their last evaluation stands bit-exactly).
	dirty []bool

	// curU[ti] caches utility(ti, ti); movU[ti] caches the correction-free
	// deviation utility (nw = claims[ti]+1). Valid bits drop in dirtyReaders.
	curU      []float64
	curUValid []bool
	movU      []float64
	movUValid []bool
}

// newGameWorklist builds the worklist for the batch wired into gs, in the
// batch's step arena, with the deficits computed from the current
// (post-initialisation) claims and every worker dirty with no cached
// utilities — the state of the first naive round.
func newGameWorklist(gs *gameState) *gameWorklist {
	wl := &gs.b.arena.wl
	wl.build(gs)
	return wl
}

// build initialises the deficits from the current claims in one pass over
// the dependency CSR — Σ|deps| work, far below one naive round.
func (wl *gameWorklist) build(gs *gameState) {
	n, m := len(gs.claims), len(gs.strategy)
	wl.liveDeficit = grown(wl.liveDeficit, n)
	wl.liveDeps = grown(wl.liveDeps, n)
	wl.liveDat = grown(wl.liveDat, len(gs.dependantDat))
	for ti := 0; ti < n; ti++ {
		lo, hi := gs.dependantOff[ti], gs.dependantOff[ti+1]
		wl.liveDeps[ti] = wl.liveDat[lo:lo:hi]
	}
	for ti := 0; ti < n; ti++ {
		var def int32
		for _, di := range gs.deps(ti) {
			if gs.claims[di] == 0 {
				def++
			}
		}
		wl.liveDeficit[ti] = def
		// Scanning ti ascending keeps every liveDeps list sorted.
		if gs.claims[ti] > 0 && !gs.deadTask[ti] {
			for _, di := range gs.deps(ti) {
				wl.liveDeps[di] = append(wl.liveDeps[di], int32(ti))
			}
		}
	}
	wl.stamp = grown(wl.stamp, n)
	clear(wl.stamp)
	wl.gen = 0
	wl.dirty = grown(wl.dirty, m)
	for i := range wl.dirty {
		wl.dirty[i] = true
	}
	wl.curU = grown(wl.curU, n)
	wl.curUValid = grown(wl.curUValid, n)
	clear(wl.curUValid)
	wl.movU = grown(wl.movU, n)
	wl.movUValid = grown(wl.movUValid, n)
	clear(wl.movUValid)
}

// nextGen returns a fresh stamp generation, clearing the stamps on the
// (rare) uint32 wrap so a stale stamp can never alias a new generation.
func (wl *gameWorklist) nextGen() uint32 {
	wl.gen++
	if wl.gen == 0 {
		clear(wl.stamp)
		wl.gen = 1
	}
	return wl.gen
}

// markMove records that a worker moved its claim from task `from` to task
// `to` (either may be -1), with gs.claims already updated. Both counters
// changed; liveness flips propagate through the dependency wiring.
func (wl *gameWorklist) markMove(gs *gameState, idx *BatchIndex, from, to int) {
	if from >= 0 {
		wl.dirtyReaders(gs, idx, from)
		if gs.claims[from] == 0 { // 1 → 0: from went dead
			wl.onLivenessFlip(gs, idx, from, false)
		}
	}
	if to >= 0 {
		wl.dirtyReaders(gs, idx, to)
		if gs.claims[to] == 1 { // 0 → 1: to came alive
			wl.onLivenessFlip(gs, idx, to, true)
		}
	}
}

// dirtyReaders records that some input of task x's utility evaluation
// changed: its cached evals are stale, and so is the last best response of
// every worker that evaluates x — its candidates (claimants of x are among
// them, so the workers whose utility(cur, cur) baseline read x are covered).
func (wl *gameWorklist) dirtyReaders(gs *gameState, idx *BatchIndex, x int) {
	wl.curUValid[x] = false
	wl.movUValid[x] = false
	for _, w := range idx.CandidateSet(x) {
		wl.dirty[w] = true
	}
}

// onLivenessFlip propagates a 0↔1 transition of claims[x]: the candidates of
// deps(x) re-read a_x in their dependant sums, and every dependant's deficit
// shifts by one — propagating further only when it crosses the {0, 1} window
// evaluations actually read ([deficit==0] plain, [deficit==1] under the
// "deviation revives dependency x" correction).
func (wl *gameWorklist) onLivenessFlip(gs *gameState, idx *BatchIndex, x int, alive bool) {
	keepSorted := !gs.deadTask[x] // dead tasks never enter liveDeps
	for _, d := range gs.deps(x) {
		wl.dirtyReaders(gs, idx, int(d))
		if keepSorted {
			if alive {
				insertSorted(&wl.liveDeps[d], int32(x))
			} else {
				removeSorted(&wl.liveDeps[d], int32(x))
			}
		}
	}
	for _, l := range gs.dependants(x) {
		li := int(l)
		if alive {
			wl.liveDeficit[li]--
		}
		// The smaller of the old/new deficit: after a decrement, before an
		// increment. Within the read window → the boolean inputs of some
		// evaluation changed → its readers go dirty.
		if wl.liveDeficit[li] <= 1 && !gs.deadTask[li] {
			wl.dirtyReaders(gs, idx, li) // self-term of li
			for _, d := range gs.deps(li) {
				wl.dirtyReaders(gs, idx, int(d)) // dependant-term readers
			}
		}
		if !alive {
			wl.liveDeficit[li]++
		}
	}
}

// bestResponse evaluates worker wi's best response over its strategy set,
// bit-exact with the naive sweep's gs.utility argmax: same expressions, same
// inclusion booleans, same summation and comparison order — candidate values
// served from the shared movU cache when the worker's current task survives
// its departure. Returns the best task index and its utility (==
// utility(bestTi, bestTi) after the move is applied — the no-move baseline
// and the post-move perturbation identity coincide, so the caller can cache
// it either way).
func (wl *gameWorklist) bestResponse(gs *gameState, set []int32, wi int) (int, float64) {
	cur := gs.strategy[wi]
	bestTi := cur
	var bestU float64
	if cur >= 0 {
		if wl.curUValid[cur] {
			bestU = wl.curU[cur]
		} else {
			bestU = wl.utilityCurrent(gs, cur)
			wl.curU[cur] = bestU
			wl.curUValid[cur] = true
		}
	}
	if cur >= 0 && gs.claims[cur] == 1 {
		// Sole claimant: leaving kills cur, so every candidate value needs
		// the deviation corrections — evaluate, don't touch the pure cache.
		gen := wl.nextGen()
		for _, li := range gs.dependants(cur) {
			wl.stamp[li] = gen
		}
		for _, t := range set {
			ti := int(t)
			if ti == cur {
				continue
			}
			if u := wl.utilityMove(gs, ti, cur, gen); u > bestU+utilityEps {
				bestU = u
				bestTi = ti
			}
		}
		return bestTi, bestU
	}
	for _, t := range set {
		ti := int(t)
		if ti == cur {
			continue
		}
		var u float64
		if wl.movUValid[ti] {
			u = wl.movU[ti]
		} else {
			u = wl.utilityPure(gs, ti)
			wl.movU[ti] = u
			wl.movUValid[ti] = true
		}
		if u > bestU+utilityEps {
			bestU = u
			bestTi = ti
		}
	}
	return bestTi, bestU
}

// utilityCurrent is utility(ti, ti): Equation 3 under the unperturbed
// claims, with the O(1) deficit test replacing the dependency scan.
func (wl *gameWorklist) utilityCurrent(gs *gameState, ti int) float64 {
	if ti < 0 {
		return 0
	}
	nw := float64(gs.claims[ti])
	if nw <= 0 {
		return 0
	}
	var u float64
	if gs.depCount[ti] > 0 {
		if !gs.deadTask[ti] && wl.liveDeficit[ti] == 0 {
			u += gs.weight[ti] * (gs.alpha - 1) / (gs.alpha * nw)
		}
	} else {
		u += gs.weight[ti] / nw
	}
	for _, l := range wl.liveDeps[ti] {
		li := int(l)
		if wl.liveDeficit[li] != 0 {
			continue
		}
		u += gs.weight[li] / (gs.alpha * float64(gs.depCount[li]) * nw)
	}
	return u
}

// utilityPure is utility(ti, cur) for a worker whose current task keeps at
// least one claimant after the deviation (claims[cur] ≥ 2, or cur == -1):
// the −1 perturbation of cur then changes no liveness boolean and no
// deficit, so the value does not depend on cur at all — it is the shared
// movU cache entry. The move itself still perturbs ti: claims[ti]+1, and a
// revived ti lowers each dependant's deficit by one (ti ∈ deps(li) by
// construction of the dependant loop).
func (wl *gameWorklist) utilityPure(gs *gameState, ti int) float64 {
	nw := float64(gs.claims[ti] + 1)
	tiFlips := gs.claims[ti] == 0 // the move itself revives ti
	var u float64
	if gs.depCount[ti] > 0 {
		if !gs.deadTask[ti] && wl.liveDeficit[ti] == 0 {
			u += gs.weight[ti] * (gs.alpha - 1) / (gs.alpha * nw)
		}
	} else {
		u += gs.weight[ti] / nw
	}
	for _, l := range wl.liveDeps[ti] {
		li := int(l)
		def := wl.liveDeficit[li]
		if tiFlips {
			def--
		}
		if def == 0 {
			u += gs.weight[li] / (gs.alpha * float64(gs.depCount[li]) * nw)
		}
	}
	return u
}

// utilityMove is utility(ti, cur) for a sole claimant of cur (ti != cur):
// the worker hypothetically moves from cur to ti, so claims[ti] gains one
// (possibly reviving ti) and cur — losing its only claimant — goes dead.
// Both corrections land on the deficits as ±1 shifts; stamp[li] == gen ⟺
// cur ∈ deps(li).
func (wl *gameWorklist) utilityMove(gs *gameState, ti, cur int, gen uint32) float64 {
	nw := float64(gs.claims[ti] + 1)
	tiFlips := gs.claims[ti] == 0 // the move itself revives ti
	var u float64
	if gs.depCount[ti] > 0 {
		def := wl.liveDeficit[ti]
		if wl.stamp[ti] == gen {
			def++ // cur ∈ deps(ti) goes dead under the deviation
		}
		if !gs.deadTask[ti] && def == 0 {
			u += gs.weight[ti] * (gs.alpha - 1) / (gs.alpha * nw)
		}
	} else {
		u += gs.weight[ti] / nw
	}
	for _, l := range wl.liveDeps[ti] {
		li := int(l)
		if li == cur {
			continue // loses its only claimant under the deviation
		}
		def := wl.liveDeficit[li]
		if tiFlips {
			def-- // ti ∈ deps(li) by construction, revived by the move
		}
		if wl.stamp[li] == gen {
			def++ // cur ∈ deps(li), killed by the move
		}
		if def == 0 {
			u += gs.weight[li] / (gs.alpha * float64(gs.depCount[li]) * nw)
		}
	}
	return u
}

// insertSorted adds v to the ascending list s, keeping it sorted. The lists
// are short (a task's currently-live dependants), so a binary search plus a
// tail shift beats any fancier structure.
func insertSorted(s *[]int32, v int32) {
	l := *s
	lo, hi := 0, len(l)
	for lo < hi {
		mid := (lo + hi) / 2
		if l[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l = append(l, 0)
	copy(l[lo+1:], l[lo:])
	l[lo] = v
	*s = l
}

// removeSorted deletes v from the ascending list s; v is always present
// (membership mirrors the claims-liveness transitions exactly).
func removeSorted(s *[]int32, v int32) {
	l := *s
	lo, hi := 0, len(l)
	for lo < hi {
		mid := (lo + hi) / 2
		if l[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(l[lo:], l[lo+1:])
	*s = l[:len(l)-1]
}

// totalUtility is gs.totalUtility through the worklist's caches: the same
// worker-order summation of utility(s_w, s_w), each addend the bit-identical
// cached float.
func (wl *gameWorklist) totalUtility(gs *gameState) float64 {
	var sum float64
	for wi := range gs.strategy {
		ti := gs.strategy[wi]
		if ti < 0 {
			continue
		}
		if !wl.curUValid[ti] {
			wl.curU[ti] = wl.utilityCurrent(gs, ti)
			wl.curUValid[ti] = true
		}
		sum += wl.curU[ti]
	}
	return sum
}
