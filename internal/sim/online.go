package sim

import (
	"container/heap"
	"math"
	"sort"

	"dasc/internal/core"
	"dasc/internal/model"
)

// RunOnline executes the instance in the *online* regime the paper's related
// work contrasts with batching (Tong et al. [24]): instead of accumulating
// arrivals into batches, the platform reacts to every task arrival
// immediately, assigning the task to the best currently-available feasible
// worker (minimum travel time) if its dependencies are met; tasks whose
// dependencies are still pending wait and are re-examined whenever a
// dependency is assigned or a worker frees up.
//
// The regime runs on the batch kernel: every decision point is a kernel
// step whose allocator is the per-arrival rule (onlineRule), repeated at
// that instant until a step assigns nothing. A worker therefore takes at
// most one task per step, as in a batch; one that finishes at the very
// instant it was dispatched (zero travel and zero service time) is offered
// again in the next step at that instant. Config.Allocator and
// BatchInterval are ignored, and Result.Batches counts the arrivals (one
// decision point per task or worker arrival), not the kernel steps.
//
// Comparing Run (batch) against RunOnline on the same instance measures how
// much the paper's batch window buys: batching can coordinate an associative
// task set, while the online rule commits myopically.
func RunOnline(in *model.Instance, cfg Config) (*Result, error) {
	rule := &onlineRule{arriving: -1}
	cfg.Allocator = rule
	p, err := New(in, cfg)
	if err != nil {
		return nil, err
	}
	r := p.start()
	if len(in.Tasks) == 0 {
		return r.res, nil
	}

	// The arrival timeline holds task AND worker arrivals: a worker whose
	// Start falls after the last task arrival must still trigger a step, or
	// the tasks it could serve are silently dropped. At equal times the
	// tasks come first, in registration order.
	arrivals := make([]arrival, 0, len(in.Tasks)+len(in.Workers))
	for i := range in.Tasks {
		arrivals = append(arrivals, arrival{at: in.Tasks[i].Start, task: in.Tasks[i].ID})
	}
	for i := range in.Workers {
		arrivals = append(arrivals, arrival{at: in.Workers[i].Start, task: -1})
	}
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].at < arrivals[b].at })

	// Wake-ups re-examine the pending tasks when a dispatched worker frees.
	// Each dispatch pushes its finish time, so completions chained after
	// the last arrival keep generating decision points until none is left.
	var wake wakeups
	for next := 0; next < len(arrivals) || len(wake) > 0; {
		// A wake-up at or before the next arrival comes first; an arrival
		// that shares its instant gives its task no priority, since the
		// wake-up's steps have already offered every pending task.
		var now float64
		rule.arriving = -1
		if len(wake) > 0 && (next == len(arrivals) || wake[0] <= arrivals[next].at) {
			now = wake[0]
		} else {
			now = arrivals[next].at
			rule.arriving = arrivals[next].task
		}
		for len(wake) > 0 && wake[0] == now {
			heap.Pop(&wake)
		}
		for ; next < len(arrivals) && arrivals[next].at == now; next++ {
			r.res.Batches++
		}
		for {
			ds, err := r.step(now)
			if err != nil {
				return nil, err
			}
			if len(ds) == 0 {
				break
			}
			for _, d := range ds {
				if d.Finish > now {
					heap.Push(&wake, d.Finish)
				}
			}
			rule.arriving = -1
		}
	}
	return r.close(), nil
}

// arrival is one point of the online timeline: a task appearing, or a
// worker appearing (task -1).
type arrival struct {
	at   float64
	task model.TaskID
}

// wakeups is a container/heap min-heap of dispatch finish times; equal
// times are popped together.
type wakeups []float64

func (h wakeups) Len() int           { return len(h) }
func (h wakeups) Less(i, j int) bool { return h[i] < h[j] }
func (h wakeups) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *wakeups) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *wakeups) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// onlineRule is the per-arrival rule as a kernel allocator. A pass takes the
// arriving task first, then every pending task in registration order. Each
// task whose dependencies are satisfied, or taken earlier in the pass, takes
// the free candidate worker with the least travel time, the lowest batch
// index on a tie.
type onlineRule struct {
	// arriving is the task whose arrival triggered the step, or -1.
	arriving model.TaskID
	// busy flags the batch workers and taken the batch tasks taken in the
	// current pass.
	busy  []bool
	taken []bool
}

func (*onlineRule) Name() string { return "Online" }

func (*onlineRule) DependencyAware() bool { return true }

func (r *onlineRule) Assign(b *core.Batch) *model.Assignment {
	r.busy = append(r.busy[:0], make([]bool, len(b.Workers))...)
	r.taken = append(r.taken[:0], make([]bool, len(b.Tasks))...)
	a := model.NewAssignment()
	if ti := b.TaskIndex(r.arriving); ti >= 0 {
		r.take(b, ti, a)
	}
	for ti := range b.Tasks {
		r.take(b, ti, a)
	}
	return a
}

// take gives pending task ti its nearest free candidate, if it is not
// taken and its dependencies allow.
func (r *onlineRule) take(b *core.Batch, ti int, a *model.Assignment) {
	if r.taken[ti] {
		return
	}
	t := b.Tasks[ti]
	for _, dep := range t.Deps {
		if !b.Satisfied.Has(dep) {
			if dj := b.TaskIndex(dep); dj < 0 || !r.taken[dj] {
				return
			}
		}
	}
	idx := b.Index()
	best, bestTravel := -1, math.Inf(1)
	for _, wi := range idx.CandidateSet(ti) {
		if r.busy[wi] {
			continue
		}
		if tr := idx.TravelCost(int(wi), ti); tr < bestTravel {
			best, bestTravel = int(wi), tr
		}
	}
	if best < 0 {
		return
	}
	r.busy[best], r.taken[ti] = true, true
	a.Add(b.Workers[best].W.ID, t.ID)
}
