package model

import (
	"math"
	"testing"

	"dasc/internal/geo"
)

func baseWorker() Worker {
	return Worker{
		ID: 0, Loc: geo.Pt(0, 0),
		Start: 0, Wait: 100, Velocity: 1, MaxDist: 100,
		Skills: NewSkillSet(0),
	}
}

func baseTask() Task {
	return Task{ID: 0, Loc: geo.Pt(3, 4), Start: 0, Wait: 100, Requires: 0}
}

func TestFeasibleSkillConstraint(t *testing.T) {
	w, tk := baseWorker(), baseTask()
	if !Feasible(&w, &tk, geo.Euclidean) {
		t.Fatal("base case should be feasible")
	}
	tk.Requires = 5
	if Feasible(&w, &tk, geo.Euclidean) {
		t.Error("missing skill accepted")
	}
}

func TestFeasibleDeadlineConditions(t *testing.T) {
	// Condition (1): task must appear before the worker leaves.
	w, tk := baseWorker(), baseTask()
	w.Wait = 10
	tk.Start = 10 // exactly at expiry: allowed (s_t ≤ s_w + w_w)
	tk.Wait = 100
	if !Feasible(&w, &tk, geo.Euclidean) {
		t.Error("task at exact worker expiry rejected")
	}
	tk.Start = 10.01
	if Feasible(&w, &tk, geo.Euclidean) {
		t.Error("task after worker expiry accepted")
	}

	// Condition (2): w_t − max(s_w − s_t, 0) − ct ≥ 0.
	w, tk = baseWorker(), baseTask() // distance 5, velocity 1 → ct = 5
	tk.Wait = 5                      // exactly reachable
	if !Feasible(&w, &tk, geo.Euclidean) {
		t.Error("boundary travel time rejected")
	}
	tk.Wait = 4.99
	if Feasible(&w, &tk, geo.Euclidean) {
		t.Error("late arrival accepted")
	}
	// Worker appearing after the task consumes part of the task's wait.
	tk.Wait = 7
	w.Start = 3 // max(s_w − s_t, 0) = 3; 7 − 3 − 5 < 0
	if Feasible(&w, &tk, geo.Euclidean) {
		t.Error("wait consumption by late worker ignored")
	}
	w.Start = 2 // 7 − 2 − 5 = 0
	if !Feasible(&w, &tk, geo.Euclidean) {
		t.Error("boundary after wait consumption rejected")
	}
}

func TestFeasibleDistanceConstraint(t *testing.T) {
	w, tk := baseWorker(), baseTask() // distance 5
	w.MaxDist = 5
	if !Feasible(&w, &tk, geo.Euclidean) {
		t.Error("boundary distance rejected")
	}
	w.MaxDist = 4.9
	if Feasible(&w, &tk, geo.Euclidean) {
		t.Error("over-distance accepted")
	}
}

func TestFeasibleZeroVelocity(t *testing.T) {
	w, tk := baseWorker(), baseTask()
	w.Velocity = 0
	if Feasible(&w, &tk, geo.Euclidean) {
		t.Error("immobile worker can reach remote task")
	}
	tk.Loc = w.Loc // colocated: zero travel regardless of velocity
	if !Feasible(&w, &tk, geo.Euclidean) {
		t.Error("colocated task rejected for immobile worker")
	}
}

func TestTravelTimeAndArrival(t *testing.T) {
	w := baseWorker()
	w.Velocity = 2
	tk := baseTask() // distance 5
	if got := w.TravelTime(w.Loc, tk.Loc, geo.Euclidean); got != 2.5 {
		t.Errorf("TravelTime = %v", got)
	}
	// Departure waits for the task to appear: leaving at 0 for a task
	// that starts at 10 arrives at 12.5, so a 2.5 wait is just enough.
	tk.Start, tk.Wait = 10, 2.5
	if !DeadlineFeasible(&tk, 0, 2.5) {
		t.Error("arrival at 12.5 rejected against deadline 12.5")
	}
	tk.Wait = 2.4
	if DeadlineFeasible(&tk, 0, 2.5) {
		t.Error("arrival at 12.5 accepted against deadline 12.4")
	}
	w.Velocity = 0
	if got := w.TravelTime(w.Loc, tk.Loc, geo.Euclidean); !math.IsInf(got, 1) {
		t.Errorf("immobile TravelTime = %v", got)
	}
}

func TestFeasibleDistanceBoundaryEpsilon(t *testing.T) {
	// The simulator accumulates travelled distance in floating point; a
	// worker that exactly exhausts its budget can be left with a remaining
	// budget a few ulps off. The budget check must tolerate that, exactly
	// as the deadline check tolerates timeEps.
	w, tk := baseWorker(), baseTask() // task at distance 5

	// Three 0.1 legs accumulate to 0.30000000000000004; remaining budget of
	// a 0.3-budget worker is then ~-4e-17. A colocated task (d = 0) must
	// stay feasible.
	used := 0.1 + 0.1 + 0.1
	remaining := 0.3 - used // slightly negative
	tk.Loc = geo.Pt(3, 3)
	if !FeasibleFrom(&w, geo.Pt(3, 3), 0, remaining, &tk, geo.Euclidean) {
		t.Error("colocated task rejected on float-noise budget")
	}

	// Remaining budget representably just below the exact distance: the
	// epsilon absorbs the gap.
	tk = baseTask() // distance 5
	below := 5.0 - 5e-10
	if !FeasibleFrom(&w, geo.Pt(0, 0), 0, below, &tk, geo.Euclidean) {
		t.Error("budget within DistEps of the distance rejected")
	}
	// A real shortfall must still fail.
	if FeasibleFrom(&w, geo.Pt(0, 0), 0, 4.9, &tk, geo.Euclidean) {
		t.Error("clear budget shortfall accepted")
	}
}

func TestFeasibleFromMidSimulation(t *testing.T) {
	w, tk := baseWorker(), baseTask() // dist 5, ct 5, deadline 100
	// Worker relocated next to the task with a tiny remaining budget.
	if FeasibleFrom(&w, geo.Pt(3, 3), 0, 0.5, &tk, geo.Euclidean) {
		t.Error("budget exhaustion ignored")
	}
	if !FeasibleFrom(&w, geo.Pt(3, 3), 0, 1.0, &tk, geo.Euclidean) {
		t.Error("reachable relocation rejected")
	}
	// Ready too late to make the deadline.
	if FeasibleFrom(&w, geo.Pt(3, 3), 99.5, 100, &tk, geo.Euclidean) {
		t.Error("late readiness ignored")
	}
}

func TestExpiryAndDeadline(t *testing.T) {
	w := Worker{Start: 5, Wait: 3}
	if w.Expiry() != 8 {
		t.Errorf("Expiry = %v", w.Expiry())
	}
	tk := Task{Start: 2, Wait: 7}
	if tk.Deadline() != 9 {
		t.Errorf("Deadline = %v", tk.Deadline())
	}
}
