package core

import (
	"sort"

	"dasc/internal/model"
)

// Improve post-processes a valid batch assignment by matching augmentation:
// it repeatedly tries to add one more pending task whose dependency
// obligations are met by the current assignment (or by Batch.Satisfied),
// re-staffing the whole enlarged task set with a fresh bipartite matching so
// existing workers may be reshuffled to make room. The result is always
// valid, never smaller, and contains the input's task set.
//
// This is an extension beyond the paper: DASC_Greedy commits associative
// sets monotonically and DASC_Game stops at a Nash equilibrium, and both can
// strand a worker that an alternating-path reshuffle would free. Improve
// closes exactly that gap at the cost of one matching per adopted task.
//
// The input must satisfy the dependency constraint (allocator outputs do;
// raw baseline output must go through DependencyFixpoint first).
func Improve(b *Batch, a *model.Assignment) *model.Assignment {
	candidates := make([][]int, len(b.Tasks))
	for ti, t := range b.Tasks {
		candidates[ti] = b.CandidateWorkers(t)
	}

	assigned := make(map[model.TaskID]bool, a.Size())
	var members []int // pending-task indexes currently in the assignment
	for _, p := range a.Pairs {
		assigned[p.Task] = true
		if ti := b.TaskIndex(p.Task); ti >= 0 {
			members = append(members, ti)
		}
	}
	sort.Ints(members)

	// eligible returns pending tasks not yet assigned whose dependencies are
	// met by the current assignment or by earlier batches.
	eligible := func() []int {
		var out []int
		for ti, t := range b.Tasks {
			if assigned[t.ID] {
				continue
			}
			ok := true
			for _, d := range t.Deps {
				if !assigned[d] && !b.Satisfied.Has(d) {
					ok = false
					break
				}
			}
			if ok && len(candidates[ti]) > 0 {
				out = append(out, ti)
			}
		}
		return out
	}

	var matchL []int
	var cols []int
	for {
		adoptedAny := false
		for _, ti := range eligible() {
			trial := append(append([]int(nil), members...), ti)
			bg, trialCols := subsetGraph(b, trial, candidates)
			m, size := bg.MaxMatchingHK()
			if size != len(trial) {
				continue
			}
			members = trial
			matchL, cols = m, trialCols
			assigned[b.Tasks[ti].ID] = true
			adoptedAny = true
		}
		if !adoptedAny {
			break
		}
		// Newly assigned tasks may have unlocked their dependants; loop.
	}
	if matchL == nil {
		// Nothing adopted: return the input unchanged (already canonical).
		return a
	}
	out := model.NewAssignment()
	for row, ti := range members {
		out.Add(b.Workers[cols[matchL[row]]].W.ID, b.Tasks[ti].ID)
	}
	return finishAssignment(b, out)
}

// Improved wraps an allocator with the Improve post-pass.
type Improved struct {
	Inner Allocator
}

// NewImproved returns the inner allocator followed by matching augmentation.
// Raw baseline output is dependency-filtered before improving.
func NewImproved(inner Allocator) *Improved { return &Improved{Inner: inner} }

// Name implements Allocator, e.g. "Greedy+aug".
func (i *Improved) Name() string { return i.Inner.Name() + "+aug" }

// DependencyAware implements Allocator with the inner allocator's answer.
func (i *Improved) DependencyAware() bool { return i.Inner.DependencyAware() }

// Assign implements Allocator.
func (i *Improved) Assign(b *Batch) *model.Assignment {
	base := DependencyFixpoint(b, i.Inner.Assign(b))
	return Improve(b, base)
}
