package model

import (
	"fmt"
	"math"

	"dasc/internal/geo"
)

// WorkerID identifies a worker. IDs are dense indexes into Instance.Workers.
type WorkerID int32

// Worker is a heterogeneous worker w = ⟨l_w, s_w, w_w, v_w, d_w, WS_w⟩
// (Definition 1): it appears at location Loc at time Start, waits at most
// Wait time for an assignment, moves at Velocity with a total moving budget
// of MaxDist, and holds the skill set Skills.
type Worker struct {
	ID       WorkerID
	Loc      geo.Point
	Start    float64 // s_w: timestamp the worker appears on the platform
	Wait     float64 // w_w: how long the worker waits for an assignment
	Velocity float64 // v_w: moving speed (distance per time unit)
	MaxDist  float64 // d_w: maximum moving distance
	Skills   SkillSet
}

// Expiry returns the time s_w + w_w after which the worker no longer accepts
// assignments.
func (w *Worker) Expiry() float64 { return w.Start + w.Wait }

// TravelTime returns ct_w(from, to): the time w needs to move between two
// locations under the given distance function. A non-positive velocity means
// the worker cannot move; TravelTime then returns +Inf unless the distance is
// zero.
func (w *Worker) TravelTime(from, to geo.Point, dist geo.DistanceFunc) float64 {
	d := dist(from, to)
	if d == 0 {
		return 0
	}
	if w.Velocity <= 0 {
		return math.Inf(1)
	}
	return d / w.Velocity
}

// String implements fmt.Stringer.
func (w *Worker) String() string {
	return fmt.Sprintf("w%d@%v skills=%v", w.ID, w.Loc, w.Skills)
}
