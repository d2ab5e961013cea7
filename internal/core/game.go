package core

import (
	"fmt"
	"math/rand"

	"dasc/internal/model"
)

// GameOptions configures DASC_Game.
type GameOptions struct {
	// Alpha is the normalisation parameter α of Equation 3 splitting each
	// task's unit value into (α−1)/α Utility_Self and 1/α
	// Utility_Dependency. Values ≤ 1 fall back to the default 10.
	Alpha float64
	// Threshold is the termination threshold on the strategy-update ratio:
	// the round loop stops when the fraction of workers changing strategy
	// in a round drops to or below it. 0 is the strict Nash-equilibrium
	// condition (the paper's Game); 0.05 is the paper's Game-5%.
	Threshold float64
	// MaxRounds caps the best-response rounds as a safety net; zero means
	// 64 + 4·min(n_b, m_b), comfortably above the observed convergence.
	MaxRounds int
	// GreedyInit seeds the initial strategies from DASC_Greedy instead of
	// uniformly random choices — the paper's G-G heuristic.
	GreedyInit bool
	// ShuffleOrder visits workers in a fresh random order every
	// best-response round instead of Algorithm 3's fixed order. Random
	// sweeps can escape order-induced equilibria at the cost of slightly
	// slower convergence; still deterministic for a fixed Seed.
	ShuffleOrder bool
	// Seed drives the random initialisation and conflict resolution.
	Seed int64
	// DisableWorklist restores the naive full sweep: every round re-evaluates
	// every worker's whole strategy set. The default (false) runs the
	// incremental worklist engine, which skips workers whose neighbourhood
	// did not change since their last evaluation — bit-exact with the naive
	// sweep including the RNG stream (VerifyWorklist is the differential
	// cross-check). The flag exists for A/B benchmarks and debugging, and
	// both CLIs' -no-game-worklist set it through WithWorklistDisabled.
	DisableWorklist bool
}

// Game implements DASC_Game (Algorithm 3): model the batch as a potential
// game, run best-response dynamics to (near) equilibrium, then resolve each
// multi-claimed task to a single worker and drop dependency-violating
// assignments.
type Game struct {
	opt GameOptions
}

// NewGame returns a DASC_Game allocator.
func NewGame(opt GameOptions) *Game {
	if opt.Alpha <= 1 {
		opt.Alpha = 10
	}
	if opt.Threshold < 0 {
		opt.Threshold = 0
	}
	return &Game{opt: opt}
}

// Name implements Allocator.
func (g *Game) Name() string {
	switch {
	case g.opt.GreedyInit:
		return NameGG
	case g.opt.Threshold > 0:
		return NameGame5
	default:
		return NameGame
	}
}

// DependencyAware implements Allocator.
func (g *Game) DependencyAware() bool { return true }

// Options returns the game's effective configuration.
func (g *Game) Options() GameOptions { return g.opt }

// WithWorklistDisabled returns a copy of the allocator with the incremental
// worklist engine disabled (true = naive full sweep) or enabled. The CLIs
// use it to honour their -no-game-worklist flags without reconstructing the
// allocator.
func (g *Game) WithWorklistDisabled(disable bool) *Game {
	ng := *g
	ng.opt.DisableWorklist = disable
	return &ng
}

// GameTrace reports how a best-response run went; retrievable via AssignTraced.
type GameTrace struct {
	Rounds       int       // best-response rounds executed
	Converged    bool      // reached the termination condition before MaxRounds
	UpdateRatios []float64 // per-round fraction of workers that switched
	FinalUtility float64   // U(S) at termination
	Active       int       // workers with a non-empty strategy set
	Evaluated    int64     // best responses computed across all rounds
	Skipped      int64     // clean workers skipped by the worklist engine
	Moved        int64     // strategy switches across all rounds
}

// Assign implements Allocator.
func (g *Game) Assign(b *Batch) *model.Assignment {
	a, _ := g.AssignTraced(b)
	return a
}

// AssignTraced runs the game and additionally returns its convergence trace.
func (g *Game) AssignTraced(b *Batch) (*model.Assignment, *GameTrace) {
	rng := newRNG(g.opt.Seed)
	gs := newGameState(b, g.opt.Alpha)
	defer gs.release()
	idx := b.Index()
	trace := &GameTrace{}

	g.initStrategies(b, gs, idx, rng)

	maxRounds := g.opt.MaxRounds
	if maxRounds <= 0 {
		minNM := len(b.Workers)
		if len(b.Tasks) < minNM {
			minNM = len(b.Tasks)
		}
		maxRounds = 64 + 4*minNM
	}

	active := 0
	for wi := range b.Workers {
		if len(idx.StrategySet(wi)) > 0 {
			active++
		}
	}
	trace.Active = active
	if active == 0 {
		b.rec.SetGameStats(0, 0, 0, 0, 0)
		return model.NewAssignment(), trace
	}

	order := make([]int, len(b.Workers))
	for i := range order {
		order[i] = i
	}
	if g.opt.DisableWorklist {
		g.sweepNaive(gs, idx, rng, order, maxRounds, active, trace)
		trace.FinalUtility = gs.totalUtility()
	} else {
		wl := newGameWorklist(gs)
		g.sweepWorklist(gs, wl, idx, rng, order, maxRounds, active, trace)
		trace.FinalUtility = wl.totalUtility(gs)
		wl.release()
	}
	b.rec.SetGameStats(trace.Rounds, active, trace.Evaluated, trace.Skipped, trace.Moved)

	// Resolution: one worker per task (random among claimants), then the
	// dependency fixpoint removes assignments whose dependencies ended up
	// unassigned.
	return finishAssignment(b, g.resolve(b, gs, rng)), trace
}

// initStrategies seeds the initial profile: a random strategy per worker
// (Algorithm 3 line 2), or the DASC_Greedy assignment for G-G with
// greedy-unassigned workers falling back to a random strategy. The greedy
// seeding stays in the index domain end to end — worker→task index pairs
// filtered by the index-domain dependency fixpoint — instead of the old
// map[WorkerID]TaskID round-trip through IDs.
func (g *Game) initStrategies(b *Batch, gs *gameState, idx *BatchIndex, rng *rand.Rand) {
	if g.opt.GreedyInit {
		taskOf := NewGreedyOpt(GreedyOptions{}).assignIndices(b)
		dependencyFixpointIndexed(b, taskOf)
		for wi := range b.Workers {
			if ti := taskOf[wi]; ti >= 0 {
				gs.move(wi, int(ti))
			} else if s := idx.StrategySet(wi); len(s) > 0 {
				gs.move(wi, int(s[rng.Intn(len(s))]))
			}
		}
		return
	}
	for wi := range b.Workers {
		if s := idx.StrategySet(wi); len(s) > 0 {
			gs.move(wi, int(s[rng.Intn(len(s))]))
		}
	}
}

// sweepNaive is Algorithm 3's literal round loop: every round re-evaluates
// every worker's full strategy set. It is the reference the worklist engine
// must match bit-exactly, kept reachable via GameOptions.DisableWorklist.
func (g *Game) sweepNaive(gs *gameState, idx *BatchIndex, rng *rand.Rand, order []int, maxRounds, active int, trace *GameTrace) {
	for round := 0; round < maxRounds; round++ {
		changed := 0
		if g.opt.ShuffleOrder {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, wi := range order {
			set := idx.StrategySet(wi)
			if len(set) == 0 {
				continue
			}
			trace.Evaluated++
			cur := gs.strategy[wi]
			bestTi := cur
			bestU := gs.utility(cur, cur)
			for _, t := range set {
				ti := int(t)
				if ti == cur {
					continue
				}
				if u := gs.utility(ti, cur); u > bestU+utilityEps {
					bestU = u
					bestTi = ti
				}
			}
			if bestTi != cur {
				gs.move(wi, bestTi)
				changed++
				trace.Moved++
			}
		}
		trace.Rounds++
		ratio := float64(changed) / float64(active)
		trace.UpdateRatios = append(trace.UpdateRatios, ratio)
		if ratio <= g.opt.Threshold {
			trace.Converged = true
			return
		}
	}
}

// sweepWorklist is the incremental engine: the same rounds in the same
// (possibly shuffled) order, but clean workers — no count or liveness
// boolean their utility evaluation reads has changed since their last
// evaluation — are skipped, and dirty workers are evaluated through the
// worklist's O(1)-depsLive fast path with the utility(cur, cur) baseline
// served from cache when still valid. Skipping consumes no RNG draws and the
// shuffle still runs every round, so the move sequence, update ratios,
// termination round and final profile are bit-exact with sweepNaive
// (DESIGN.md §3.11; VerifyWorklist checks it).
func (g *Game) sweepWorklist(gs *gameState, wl *gameWorklist, idx *BatchIndex, rng *rand.Rand, order []int, maxRounds, active int, trace *GameTrace) {
	for round := 0; round < maxRounds; round++ {
		changed := 0
		if g.opt.ShuffleOrder {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, wi := range order {
			set := idx.StrategySet(wi)
			if len(set) == 0 {
				continue
			}
			if !wl.dirty[wi] {
				trace.Skipped++
				continue
			}
			wl.dirty[wi] = false
			trace.Evaluated++
			cur := gs.strategy[wi]
			bestTi, bestU := wl.bestResponse(gs, set, wi)
			if bestTi != cur {
				gs.move(wi, bestTi)
				wl.markMove(gs, idx, cur, bestTi)
				// bestU — computed as utility(bestTi, cur) pre-move — is
				// exactly utility(bestTi, bestTi) post-move: same claimant
				// count, same liveness perturbation. Seed the baseline cache
				// after markMove so the move's own invalidation doesn't
				// erase it.
				wl.curU[bestTi] = bestU
				wl.curUValid[bestTi] = true
				changed++
				trace.Moved++
			}
		}
		trace.Rounds++
		ratio := float64(changed) / float64(active)
		trace.UpdateRatios = append(trace.UpdateRatios, ratio)
		if ratio <= g.opt.Threshold {
			trace.Converged = true
			return
		}
	}
}

// VerifyWorklist runs the batch through both best-response engines — the
// incremental worklist sweep and the naive full sweep — under identically
// seeded RNGs and returns an error describing the first divergence, or nil.
// It is the game's differential cross-check, the same pattern VerifyIndex
// provides for the candidate engine: assignments, round counts, convergence,
// per-round update ratios and the final utility must all agree exactly.
func (g *Game) VerifyWorklist(b *Batch) error {
	// The reference runs are bookkeeping, not batch work: hide the recorder
	// so verification doesn't overwrite the batch's game stats.
	saved := b.rec
	b.rec = nil
	defer func() { b.rec = saved }()

	fast := *g
	fast.opt.DisableWorklist = false
	slow := *g
	slow.opt.DisableWorklist = true
	af, tf := fast.AssignTraced(b)
	as, ts := slow.AssignTraced(b)
	if af.String() != as.String() {
		return fmt.Errorf("core: game worklist assignment diverges: worklist %v, naive %v", af, as)
	}
	if tf.Rounds != ts.Rounds || tf.Converged != ts.Converged {
		return fmt.Errorf("core: game worklist rounds diverge: worklist %d (converged=%v), naive %d (converged=%v)",
			tf.Rounds, tf.Converged, ts.Rounds, ts.Converged)
	}
	if !float64SlicesEqual(tf.UpdateRatios, ts.UpdateRatios) {
		return fmt.Errorf("core: game worklist update ratios diverge: worklist %v, naive %v", tf.UpdateRatios, ts.UpdateRatios)
	}
	if tf.FinalUtility != ts.FinalUtility {
		return fmt.Errorf("core: game worklist final utility diverges: worklist %v, naive %v", tf.FinalUtility, ts.FinalUtility)
	}
	if tf.Moved != ts.Moved {
		return fmt.Errorf("core: game worklist move count diverges: worklist %d, naive %d", tf.Moved, ts.Moved)
	}
	return nil
}

// utilityEps guards the strict-improvement test against floating-point
// noise; without it equal-utility oscillation could stall convergence.
const utilityEps = 1e-12

// resolve picks one claimant per claimed task. Among a task's claimants the
// winner is chosen uniformly at random (the paper randomly selects one);
// losers stay idle for this batch. The claimant lists are laid out flat in
// the state's pooled counting-sort scratch — ascending worker order within
// each task and one RNG draw per claimed task, exactly like the [][]int
// layout it replaces, so the draw sequence (and thus every downstream
// winner) is unchanged.
func (g *Game) resolve(b *Batch, gs *gameState, rng *rand.Rand) *model.Assignment {
	n := len(b.Tasks)
	off := grown(gs.claimOff, n+1)
	off[0] = 0
	for ti := 0; ti < n; ti++ {
		off[ti+1] = off[ti] + int32(gs.claims[ti])
	}
	dat := grown(gs.claimDat, int(off[n]))
	cur := grown(gs.claimCur, n)
	copy(cur, off[:n])
	for wi, ti := range gs.strategy {
		if ti >= 0 {
			dat[cur[ti]] = int32(wi)
			cur[ti]++
		}
	}
	gs.claimOff, gs.claimDat, gs.claimCur = off, dat, cur

	out := model.NewAssignment()
	for ti := 0; ti < n; ti++ {
		ws := dat[off[ti]:off[ti+1]]
		if len(ws) == 0 {
			continue
		}
		wi := ws[rng.Intn(len(ws))]
		out.Add(b.Workers[wi].W.ID, b.Tasks[ti].ID)
	}
	return out
}

// dependencyFixpointIndexed is DependencyFixpoint in the index domain: it
// filters taskOf (worker index → claimed task index, -1 = unassigned) in
// place, dropping assignments whose task has a dependency that is neither
// satisfied by earlier batches nor kept in the assignment, until stable.
// Chaotic iteration of the same monotone removal operator converges to the
// same greatest fixpoint as the ID-domain version.
func dependencyFixpointIndexed(b *Batch, taskOf []int32) {
	w := b.depWiring()
	kept := make([]bool, len(b.Tasks))
	for _, ti := range taskOf {
		if ti >= 0 {
			kept[ti] = true
		}
	}
	for {
		dropped := false
		for wi, ti := range taskOf {
			if ti < 0 || w.depsKept(int(ti), kept) {
				continue
			}
			kept[ti] = false
			taskOf[wi] = -1
			dropped = true
		}
		if !dropped {
			return
		}
	}
}

// float64SlicesEqual compares bit-for-bit: the compared engines compute the
// same floats, so no tolerance is needed.
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
