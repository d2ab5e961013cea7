package server

import (
	"sync"

	"dasc/internal/model"
)

// readView is the atomically swapped read snapshot the HTTP read endpoints
// (/v1/stats, /v1/assignments, /v1/instance, /v1/svg) serve from instead of
// taking the big platform mutex — a read under heavy ingest costs one atomic
// pointer load, never a lock that a group commit (journal fsync) is holding.
//
// The view aliases the platform's worker/task backing arrays rather than
// copying them. That is safe because both registries are append-only and
// their elements are never mutated after publication (all mutable dispatch
// state lives in the kernel): a later append either writes beyond this
// view's length or reallocates, and readers never look past v.workers/tasks'
// own bounds. The three-index slice expressions in publishViewLocked pin the
// capacity so the aliasing contract is explicit.
//
// The assignment view aliases Platform.assignLog under the same contract:
// a tick only appends to the log, and the one in-place rewrite (a task
// dispatched twice, logAssignmentLocked) happens on a fresh copy, so an
// entry a view can see is never written again.
type readView struct {
	stats   Stats
	assign  *assignView
	workers []model.Worker
	tasks   []model.Task
}

// assignView is the read side of the assignment log: its first len(pairs)
// entries, in dispatch order. The task-sorted assignment the endpoints
// serve is built from a copy on first read, once per view, off the
// platform lock; a publish that leaves the log unchanged (every
// registration) shares the previous assignView, sorted copy included.
type assignView struct {
	pairs  []model.Pair
	once   sync.Once
	sorted *model.Assignment
}

func (a *assignView) assignment() *model.Assignment {
	a.once.Do(func() { a.sorted = sortedAssignment(a.pairs) })
	return a.sorted
}

// sortedAssignment returns a task-sorted copy of pairs.
func sortedAssignment(pairs []model.Pair) *model.Assignment {
	a := &model.Assignment{Pairs: append([]model.Pair(nil), pairs...)}
	a.Sort()
	return a
}

// publishViewLocked swaps in a read view of the current state. It is O(1):
// the registries and the assignment log are aliased, not copied, and the
// assignment view is reused while the log is the same slice (same backing
// array, same length).
//
// requires: p.mu
func (p *Platform) publishViewLocked() {
	n := len(p.assignLog)
	var av *assignView
	if prev := p.view.Load(); prev != nil && sameLog(prev.assign.pairs, p.assignLog) {
		av = prev.assign
	} else {
		av = &assignView{pairs: p.assignLog[:n:n]}
	}
	p.view.Store(&readView{
		stats:   p.statsLocked(),
		assign:  av,
		workers: p.workers[:len(p.workers):len(p.workers)],
		tasks:   p.tasks[:len(p.tasks):len(p.tasks)],
	})
}

// sameLog reports whether a and b are the same slice of one backing array.
// Entries a view can see are never rewritten in place, so that means the
// same content.
func sameLog(a, b []model.Pair) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// loadView returns the current read view. NewPlatform publishes the first
// one, so there always is one.
func (p *Platform) loadView() *readView { return p.view.Load() }

// StatsView returns the platform counters from the read view, without
// taking the platform mutex. Every mutation republishes the view, so this is
// never stale relative to acknowledged operations.
func (p *Platform) StatsView() Stats { return p.loadView().stats }

// AssignmentsView returns every valid pair so far, sorted by task ID, from
// the read view. The returned assignment is shared and MUST be treated as
// read-only; use Assignments for a private copy.
func (p *Platform) AssignmentsView() *model.Assignment { return p.loadView().assign.assignment() }

// InstanceView returns the current worker and task registries from the read
// view without copying. The instance aliases live platform storage and MUST
// be treated as read-only.
func (p *Platform) InstanceView() *model.Instance {
	v := p.loadView()
	return &model.Instance{Workers: v.workers, Tasks: v.tasks, Dist: p.dist}
}
