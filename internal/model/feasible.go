package model

import "dasc/internal/geo"

// Feasible reports whether the pair (w, t) satisfies the paper's skill,
// deadline and distance constraints (Definition 3, constraints 1–2 plus the
// maximum-moving-distance part of Definition 1). The dependency and exclusive
// constraints are properties of a whole assignment, not a pair, and are
// checked by Assignment.Validate.
//
// The deadline constraint is exactly the paper's two conditions:
//
//	s_t ≤ s_w + w_w                              (task appears before the worker leaves)
//	w_t − max(s_w − s_t, 0) − ct_w(l_w, l_t) ≥ 0 (worker arrives before the deadline)
func Feasible(w *Worker, t *Task, dist geo.DistanceFunc) bool {
	return FeasibleFrom(w, w.Loc, maxf(w.Start, t.Start), w.MaxDist, t, dist)
}

// FeasibleFrom generalises Feasible to a worker mid-simulation: loc is the
// worker's current location, readyAt the earliest time it can start moving,
// and distBudget its remaining moving distance. The static case is
// FeasibleFrom(w, w.Loc, max(s_w, s_t), w.MaxDist, t, dist).
func FeasibleFrom(w *Worker, loc geo.Point, readyAt, distBudget float64, t *Task, dist geo.DistanceFunc) bool {
	if !w.Skills.Has(t.Requires) {
		return false
	}
	if t.Start > w.Expiry() {
		return false
	}
	d := dist(loc, t.Loc)
	if d > distBudget+DistEps {
		return false
	}
	depart := maxf(readyAt, t.Start)
	return depart+w.TravelTime(loc, t.Loc, dist) <= t.Deadline()+timeEps
}

// timeEps absorbs floating-point noise in deadline comparisons so that a
// worker exactly on the boundary (common in hand-built examples) is feasible.
const timeEps = 1e-9

// DistEps is the distance-budget counterpart of timeEps: the budget check of
// FeasibleFrom accepts d ≤ distBudget + DistEps. The simulator accumulates a
// worker's travelled distance leg by leg in floating point, so a worker that
// exactly exhausts its declared budget can end up with a remaining budget a
// few ulps below the true value (even slightly negative); without the epsilon
// a colocated task (d = 0) would flip infeasible. Exported so spatial pruning
// layers can widen their query radius to distBudget+DistEps and stay
// consistent with this predicate.
const DistEps = 1e-9

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
