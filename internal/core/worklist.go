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
// (claims[cur] == 1) are evaluated uncached by the same evaluator with the
// deviation corrections switched on: the maintained deficits plus a stamped
// dependants(cur) membership test, giving gameState.utility's bit-identical
// values without the per-dependant dependency re-scan.
type gameWorklist struct {
	// liveDeficit[ti] = number of ti's unsatisfied in-batch dependencies
	// currently unclaimed; deps all live ⟺ deficit == 0 (and !deadTask).
	liveDeficit []int32

	// liveDeps[ti] is the sublist of dependants(ti) that can contribute a
	// dependant term at all: claimed and not dead, and ti itself when it
	// depends on itself (it is live whenever its own utility is read, so
	// it stays in its own list). Kept ascending by sorted
	// insertion on liveness flips, so iterating it visits the contributing
	// dependants in exactly the CSR order the naive scan uses — the skipped
	// entries add nothing, so the float summation is unchanged while the
	// scans shrink to the live fraction of each dependant list. Each list
	// is a window of liveDat over dependants(ti)'s CSR range, capped there,
	// so insertions never reallocate.
	liveDeps [][]int32
	liveDat  []int32

	// selfDep[ti] marks a task among its own dependencies, which only
	// instances that bypass Validate have: a move reviving it also revives
	// one of its own dependencies.
	selfDep []bool

	// mark stamps dependants(cur) for a sole claimant's evaluations, giving
	// O(1) "cur ∈ deps(li)" tests for the deviation corrections.
	mark idStamps

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
	wl.selfDep = grown(wl.selfDep, n)
	for ti := 0; ti < n; ti++ {
		var def int32
		wl.selfDep[ti] = false
		for _, di := range gs.deps(ti) {
			if gs.claims[di] == 0 {
				def++
			}
			if int(di) == ti {
				wl.selfDep[ti] = true
			}
		}
		wl.liveDeficit[ti] = def
		// Scanning ti ascending keeps every liveDeps list sorted.
		switch {
		case gs.deadTask[ti]:
		case gs.claims[ti] > 0:
			for _, di := range gs.deps(ti) {
				wl.liveDeps[di] = append(wl.liveDeps[di], int32(ti))
			}
		case wl.selfDep[ti]:
			wl.liveDeps[ti] = append(wl.liveDeps[ti], int32(ti))
		}
	}
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
		if keepSorted && int(d) != x { // a self-dependent x stays in its own list
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
		bestU = wl.current(gs, cur)
	}
	sole, base := wl.leave(gs, cur)
	for _, t := range set {
		ti := int(t)
		if ti == cur {
			continue
		}
		var u float64
		switch {
		case sole >= 0:
			// Leaving kills cur, so every candidate value needs the
			// deviation corrections: evaluate, don't touch the movU cache.
			u = wl.utility(gs, ti, true, sole, base)
		case wl.movUValid[ti]:
			u = wl.movU[ti]
		default:
			u = wl.utility(gs, ti, true, -1, 0)
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

// leave returns utility's sole and base arguments for a worker deviating
// from cur: sole = -1 unless the worker is cur's only claimant, in which
// case cur's dependants are marked with a fresh stamp base.
func (wl *gameWorklist) leave(gs *gameState, cur int) (sole int, base uint32) {
	if cur < 0 || gs.claims[cur] != 1 {
		return -1, 0
	}
	base = wl.mark.reserve(len(gs.claims), 1)
	for _, li := range gs.dependants(cur) {
		wl.mark.tag[li] = base
	}
	return cur, base
}

// current returns utility(ti, ti) through the curU cache.
func (wl *gameWorklist) current(gs *gameState, ti int) float64 {
	if !wl.curUValid[ti] {
		wl.curU[ti] = wl.utility(gs, ti, false, -1, 0)
		wl.curUValid[ti] = true
	}
	return wl.curU[ti]
}

// utility is Equation 3 for one worker holding or joining claimed task ti,
// read from the maintained deficits instead of dependency scans, with the
// float expressions, inclusion booleans and summation order of
// gameState.utility:
//
//   - join adds the worker to ti's claimants (nw = claims[ti]+1); a ti the
//     move revives lowers each live dependant's deficit by one, since ti ∈
//     deps(li) by construction of the dependant loop. Without join the
//     value is utility(ti, ti).
//   - sole ≥ 0 names a task the worker leaves as its only claimant: that
//     task goes dead, so it contributes no dependant term, and every task
//     marked base in wl.mark (the dependants of sole) gains one deficit.
//     With sole < 0 the departure changes no liveness boolean and no
//     deficit, so the value is the same for every such worker (movU).
func (wl *gameWorklist) utility(gs *gameState, ti int, join bool, sole int, base uint32) float64 {
	n := gs.claims[ti]
	var revive int32
	if join {
		if n == 0 {
			revive = 1
		}
		n++
	}
	if n <= 0 {
		return 0
	}
	nw := float64(n)
	var u float64
	if gs.depCount[ti] > 0 {
		def := wl.liveDeficit[ti]
		if revive != 0 && wl.selfDep[ti] {
			def-- // ti ∈ deps(ti), revived by the move
		}
		if sole >= 0 && wl.mark.tag[ti] == base {
			def++
		}
		if !gs.deadTask[ti] && def == 0 {
			u += gs.weight[ti] * (gs.alpha - 1) / (gs.alpha * nw)
		}
	} else {
		u += gs.weight[ti] / nw
	}
	for _, l := range wl.liveDeps[ti] {
		li := int(l)
		def := wl.liveDeficit[li] - revive
		if sole >= 0 {
			if li == sole {
				continue
			}
			if wl.mark.tag[li] == base {
				def++
			}
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
		if ti >= 0 {
			sum += wl.current(gs, ti)
		}
	}
	return sum
}
