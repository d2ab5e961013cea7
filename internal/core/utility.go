package core

// gameState holds the mutable state of one best-response run: each worker's
// current strategy and the per-task claimant counts, over the batch's shared
// read-only dependency wiring (embedded, so gs.deps, gs.weight, gs.deadTask
// etc. resolve through it).
//
// The wiring is flat CSR slices, and the state lives in the batch's step
// arena (newGameState), so once the arena has seen its largest batch a
// best-response run allocates nothing: the strategy and claims slices
// resize in place and only grow when a larger batch arrives.
type gameState struct {
	b     *Batch
	alpha float64
	*depWiring

	strategy []int // worker index -> pending task index, or -1 (idle)
	claims   []int // pending task index -> number of claimants nw_t

	// claimOff/claimDat/claimCur are resolve's counting-sort scratch: the
	// claimant lists of all tasks laid out CSR-style in one flat buffer
	// instead of a [][]int of per-task appends.
	claimOff []int32
	claimDat []int32
	claimCur []int32
}

// newGameState readies the batch's arena-held state for a run over the
// batch's dependency structure. The state stays valid until the next run
// over the same arena.
func newGameState(b *Batch, alpha float64) *gameState {
	gs := &b.arena.game
	gs.reset(b, alpha)
	return gs
}

// reset points the state at a new batch, reusing the mutable buffers. The
// dependency wiring comes from the batch's once-built cache, so reset is
// O(n+m) — it no longer rebuilds the CSRs on every Assign.
func (gs *gameState) reset(b *Batch, alpha float64) {
	n, m := len(b.Tasks), len(b.Workers)
	gs.b, gs.alpha = b, alpha
	gs.depWiring = b.depWiring()
	gs.strategy = grown(gs.strategy, m)
	for i := range gs.strategy {
		gs.strategy[i] = -1
	}
	gs.claims = grown(gs.claims, n)
	clear(gs.claims)
}

// live reports a_t for pending task ti under the current claims: a task is
// live when at least one worker claims it. extraTi (if ≥ 0) is treated as
// claimed by one additional worker, and minusTi as claimed by one fewer —
// the pattern needed to evaluate a unilateral deviation without mutating.
func (gs *gameState) live(ti, extraTi, minusTi int) bool {
	c := gs.claims[ti]
	if ti == extraTi {
		c++
	}
	if ti == minusTi {
		c--
	}
	return c > 0
}

// depsLive reports ∏_{f∈D_t} a_f for pending task ti: every dependency
// satisfied earlier or currently claimed. Dead tasks are never live.
func (gs *gameState) depsLive(ti, extraTi, minusTi int) bool {
	if gs.deadTask[ti] {
		return false
	}
	for _, di := range gs.deps(ti) {
		if !gs.live(int(di), extraTi, minusTi) {
			return false
		}
	}
	return true
}

// utility evaluates U_w (Equation 3) for a worker hypothetically claiming
// task ti, given that the worker's current claim is curTi (-1 if idle).
// The evaluation perturbs the claim counts by moving the worker from curTi
// to ti without mutating the state.
func (gs *gameState) utility(ti, curTi int) float64 {
	if ti < 0 {
		return 0
	}
	extra, minus := ti, curTi
	if ti == curTi { // no move: counts unchanged
		extra, minus = -1, -1
	}
	nw := float64(gs.claims[ti])
	if ti != curTi {
		nw++
	}
	if nw <= 0 {
		return 0
	}
	var u float64
	// Utility_Self: w_t·(α−1)/α · ∏_{f∈D_t} a_f / nw_t for dependent tasks,
	// w_t/nw_t for root tasks (w_t = 1 in the paper's setting).
	if gs.depCount[ti] > 0 {
		if gs.depsLive(ti, extra, minus) {
			u += gs.weight[ti] * (gs.alpha - 1) / (gs.alpha * nw)
		}
	} else {
		u += gs.weight[ti] / nw
	}
	// Utility_Dependency: for every pending dependant l with t ∈ D_l,
	// w_l·∏_{f∈D_l∪{l}} a_f / (α·|D_l|·nw_t).
	for _, li := range gs.dependants(ti) {
		if !gs.live(int(li), extra, minus) {
			continue
		}
		if !gs.depsLive(int(li), extra, minus) {
			continue
		}
		u += gs.weight[li] / (gs.alpha * float64(gs.depCount[li]) * nw)
	}
	return u
}

// move switches worker wi's strategy to ti (-1 = idle), updating counts.
func (gs *gameState) move(wi, ti int) {
	cur := gs.strategy[wi]
	if cur == ti {
		return
	}
	if cur >= 0 {
		gs.claims[cur]--
	}
	if ti >= 0 {
		gs.claims[ti]++
	}
	gs.strategy[wi] = ti
}

// totalUtility returns U(S) = Σ_w U_w(s_w, s̄_w) under the current strategy
// profile.
func (gs *gameState) totalUtility() float64 {
	var sum float64
	for wi := range gs.strategy {
		sum += gs.utility(gs.strategy[wi], gs.strategy[wi])
	}
	return sum
}

// potential returns the congestion-game potential Φ(S) = Σ_t V_t(S)·H(nw_t)
// where V_t is the task's full (unshared) utility value and H the harmonic
// number. For dependency-free instances the best-response dynamic increases
// Φ by exactly the deviating worker's utility gain (the exact-potential
// identity of Theorem IV.1); the property tests rely on this.
func (gs *gameState) potential() float64 {
	var phi float64
	for ti := range gs.claims {
		n := gs.claims[ti]
		if n == 0 {
			continue
		}
		var v float64
		if gs.depCount[ti] > 0 {
			if gs.depsLive(ti, -1, -1) {
				v += gs.weight[ti] * (gs.alpha - 1) / gs.alpha
			}
		} else {
			v += gs.weight[ti]
		}
		for _, li := range gs.dependants(ti) {
			if gs.live(int(li), -1, -1) && gs.depsLive(int(li), -1, -1) {
				v += gs.weight[li] / (gs.alpha * float64(gs.depCount[li]))
			}
		}
		phi += v * harmonic(n)
	}
	return phi
}

// harmonic returns H(n) = 1 + 1/2 + … + 1/n.
func harmonic(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}
