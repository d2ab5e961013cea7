package model

import (
	"fmt"

	"dasc/internal/geo"
)

// TaskID identifies a task. IDs are dense indexes into Instance.Tasks.
type TaskID int32

// Task is a dependency-aware spatial task t = ⟨l_t, s_t, w_t, rs_t, D_t⟩
// (Definition 2): it appears at location Loc at time Start, must have its
// service *started* within Wait time, requires a worker holding Requires,
// and may only be conducted once every task in Deps is assigned.
//
// Deps is kept transitively closed throughout this library, mirroring the
// paper's data construction ("when we add t_j into t_i's dependency set, we
// also add t_j's dependency set D_j"). An associative task set of the greedy
// algorithm is therefore simply {t} ∪ Deps.
type Task struct {
	ID       TaskID
	Loc      geo.Point
	Start    float64 // s_t: timestamp the task appears on the platform
	Wait     float64 // w_t: service must start within this much time
	Requires Skill   // rs_t: the single required skill
	Deps     []TaskID
	// Weight is the task's value toward the weighted objective Σ w_t·I(w,t)
	// — an extension of the paper's unit objective (Equation 1 is the
	// special case of all weights equal). Non-positive means 1.
	Weight float64
}

// Deadline returns s_t + w_t, the latest service-start time.
func (t *Task) Deadline() float64 { return t.Start + t.Wait }

// EffWeight returns the task's effective objective weight: Weight when
// positive, else 1 (the paper's unweighted objective).
func (t *Task) EffWeight() float64 {
	if t.Weight > 0 {
		return t.Weight
	}
	return 1
}

// String implements fmt.Stringer.
func (t *Task) String() string {
	return fmt.Sprintf("t%d@%v requires=ψ%d deps=%v", t.ID, t.Loc, t.Requires, t.Deps)
}
