package model

import (
	"cmp"
	"fmt"
	"slices"

	"dasc/internal/geo"
)

// Pair is one matched worker-and-task pair (w, t) of an assignment M.
type Pair struct {
	Worker WorkerID
	Task   TaskID
}

// Assignment is the result M of one batch: a set of worker-and-task pairs.
// Pairs are kept sorted by task ID for deterministic output.
type Assignment struct {
	Pairs []Pair
}

// NewAssignment returns an empty assignment.
func NewAssignment() *Assignment { return &Assignment{} }

// Add appends a pair. Callers are responsible for exclusivity; Validate
// catches violations.
func (a *Assignment) Add(w WorkerID, t TaskID) {
	a.Pairs = append(a.Pairs, Pair{Worker: w, Task: t})
}

// Size returns Sum(M) = |M|, the paper's objective value.
func (a *Assignment) Size() int { return len(a.Pairs) }

// WeightSum returns the weighted objective Σ w_t over assigned tasks, which
// equals Size() when all task weights are 1 (the paper's setting). Unknown
// task IDs contribute zero.
func (a *Assignment) WeightSum(in *Instance) float64 {
	var sum float64
	for _, p := range a.Pairs {
		if t := in.Task(p.Task); t != nil {
			sum += t.EffWeight()
		}
	}
	return sum
}

// TaskSet returns the set of assigned task IDs.
func (a *Assignment) TaskSet() map[TaskID]bool {
	out := make(map[TaskID]bool, len(a.Pairs))
	for _, p := range a.Pairs {
		out[p.Task] = true
	}
	return out
}

// Sort orders pairs by task ID (then worker ID) for stable output. Equal
// keys are equal pairs, so the order is the same whatever the sort.
func (a *Assignment) Sort() {
	slices.SortFunc(a.Pairs, func(x, y Pair) int {
		if c := cmp.Compare(x.Task, y.Task); c != 0 {
			return c
		}
		return cmp.Compare(x.Worker, y.Worker)
	})
}

// String implements fmt.Stringer.
func (a *Assignment) String() string {
	s := "M{"
	for i, p := range a.Pairs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("(w%d,t%d)", p.Worker, p.Task)
	}
	return s + "}"
}

// ValidationOptions configures Assignment validation.
type ValidationOptions struct {
	// Satisfied marks task IDs whose dependency obligation is already met
	// outside this assignment (tasks assigned or completed in earlier
	// batches). May be nil.
	Satisfied map[TaskID]bool
	// Dist overrides the instance's distance function when non-nil.
	Dist geo.DistanceFunc
}

// Validate checks an assignment against all four constraints of
// Definition 3 and returns the first violation found, or nil.
func (a *Assignment) Validate(in *Instance, opt ValidationOptions) error {
	dist := opt.Dist
	if dist == nil {
		dist = in.Distance()
	}
	workerUsed := make(map[WorkerID]bool, len(a.Pairs))
	taskUsed := make(map[TaskID]bool, len(a.Pairs))
	for _, p := range a.Pairs {
		w, t := in.Worker(p.Worker), in.Task(p.Task)
		if w == nil {
			return fmt.Errorf("model: assignment references unknown worker w%d", p.Worker)
		}
		if t == nil {
			return fmt.Errorf("model: assignment references unknown task t%d", p.Task)
		}
		// Exclusive constraint.
		if workerUsed[p.Worker] {
			return fmt.Errorf("model: worker w%d assigned twice", p.Worker)
		}
		if taskUsed[p.Task] {
			return fmt.Errorf("model: task t%d assigned twice", p.Task)
		}
		workerUsed[p.Worker] = true
		taskUsed[p.Task] = true
		// Skill constraint.
		if !w.Skills.Has(t.Requires) {
			return fmt.Errorf("model: worker w%d lacks skill ψ%d for task t%d", w.ID, t.Requires, t.ID)
		}
		// Deadline + distance constraints.
		if !Feasible(w, t, dist) {
			return fmt.Errorf("model: pair (w%d,t%d) violates deadline or distance constraint", w.ID, t.ID)
		}
	}
	// Dependency constraint: every dependency of an assigned task must be
	// assigned in this batch or already satisfied.
	assigned := a.TaskSet()
	for _, p := range a.Pairs {
		t := in.Task(p.Task)
		for _, d := range t.Deps {
			if !assigned[d] && !opt.Satisfied[d] {
				return fmt.Errorf("model: task t%d assigned but dependency t%d is not", t.ID, d)
			}
		}
	}
	return nil
}
