package sim

import (
	"math"
	"sort"

	"dasc/internal/core"
	"dasc/internal/geo"
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
// Comparing Run (batch) against RunOnline on the same instance measures how
// much the paper's batch window buys: batching can coordinate an associative
// task set, while the online rule commits myopically.
func RunOnline(in *model.Instance, cfg Config) (*Result, error) {
	if cfg.Allocator == nil {
		// The online rule is fixed (greedy-by-travel-time); the field is
		// unused but kept required so both entry points validate alike.
		cfg.Allocator = core.NewGreedy()
	}
	p, err := New(in, cfg)
	if err != nil {
		return nil, err
	}
	return p.runOnline()
}

// event is one point of the online timeline: a task appearing or a worker
// appearing.
type event struct {
	at   float64
	task model.TaskID // -1 for worker-arrival events
}

// wakeupQueue is a min-heap of re-examination times with duplicate
// suppression: worker-finish times are pushed as assignments are made and
// popped in time order, including wakeups created while draining earlier
// ones — the fixpoint that keeps late completion chains alive.
type wakeupQueue struct {
	heap []float64
	seen map[float64]bool
}

func newWakeupQueue() *wakeupQueue {
	return &wakeupQueue{seen: make(map[float64]bool)}
}

func (q *wakeupQueue) push(at float64) {
	if q.seen[at] {
		return
	}
	q.seen[at] = true
	q.heap = append(q.heap, at)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.heap[p] <= q.heap[i] {
			break
		}
		q.heap[p], q.heap[i] = q.heap[i], q.heap[p]
		i = p
	}
}

func (q *wakeupQueue) len() int { return len(q.heap) }

func (q *wakeupQueue) min() float64 { return q.heap[0] }

func (q *wakeupQueue) pop() float64 {
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && q.heap[l] < q.heap[best] {
			best = l
		}
		if r < last && q.heap[r] < q.heap[best] {
			best = r
		}
		if best == i {
			break
		}
		q.heap[i], q.heap[best] = q.heap[best], q.heap[i]
		i = best
	}
	return top
}

func (p *Platform) runOnline() (*Result, error) {
	in, cfg := p.in, p.cfg
	dist := in.Distance()
	res := &Result{WorkerAssignments: map[model.WorkerID]int{}}
	if len(in.Tasks) == 0 {
		return res, nil
	}

	type wstate struct {
		loc       geo.Point
		busyUntil float64
		distUsed  float64
	}
	ws := make([]wstate, len(in.Workers))
	for i := range in.Workers {
		ws[i] = wstate{loc: in.Workers[i].Loc}
	}
	assigned := make(map[model.TaskID]bool)
	finishAt := make(map[model.TaskID]float64)

	// Per-skill worker lists, in ascending index order, prune the
	// per-arrival worker scan: only workers holding rs_t are examined for a
	// task.
	bySkill := make(map[model.Skill][]int)
	for i := range in.Workers {
		for _, sk := range in.Workers[i].Skills.Skills() {
			bySkill[sk] = append(bySkill[sk], i)
		}
	}

	// Timeline: task arrivals AND worker arrivals. A worker whose Start
	// falls after the last task arrival must still trigger a sweep, or the
	// tasks it could serve are silently dropped.
	var timeline []event
	for i := range in.Tasks {
		timeline = append(timeline, event{at: in.Tasks[i].Start, task: in.Tasks[i].ID})
	}
	for i := range in.Workers {
		timeline = append(timeline, event{at: in.Workers[i].Start, task: -1})
	}
	sort.SliceStable(timeline, func(a, b int) bool { return timeline[a].at < timeline[b].at })

	// Wakeups re-examine pending tasks when a busy worker frees. New
	// assignments push their finish time as they are made, so completions
	// chained through the post-timeline drain keep generating wakeups.
	wake := newWakeupQueue()

	var delaySum float64
	var delayCount int

	// tryAssign attempts the online rule for task id at time now.
	tryAssign := func(id model.TaskID, now float64) bool {
		t := in.Task(id)
		if assigned[t.ID] || t.Deadline() < now {
			return false
		}
		for _, d := range t.Deps {
			if !assigned[d] {
				return false
			}
		}
		best := -1
		bestTravel := math.Inf(1)
		for _, i := range bySkill[t.Requires] {
			w := &in.Workers[i]
			if w.Start > now || now > w.Expiry() || ws[i].busyUntil > now {
				continue
			}
			if !model.FeasibleFrom(w, ws[i].loc, now, w.MaxDist-ws[i].distUsed, t, dist) {
				continue
			}
			if tr := w.TravelTime(ws[i].loc, t.Loc, dist); tr < bestTravel {
				bestTravel = tr
				best = i
			}
		}
		if best < 0 {
			return false
		}
		w := &in.Workers[best]
		d := dist(ws[best].loc, t.Loc)
		arrive := math.Max(now, t.Start) + bestTravel
		serviceStart := arrive
		for _, dep := range t.Deps {
			if fa, ok := finishAt[dep]; ok && fa > serviceStart {
				serviceStart = fa
			}
		}
		finish := serviceStart + cfg.ServiceTime
		assigned[t.ID] = true
		finishAt[t.ID] = finish
		ws[best].loc = t.Loc
		ws[best].distUsed += d
		ws[best].busyUntil = finish
		if finish > now {
			wake.push(finish)
		}
		res.WorkerBusyTime += finish - now
		res.AssignedPairs++
		res.AssignedWeight += t.EffWeight()
		res.CompletedTasks++
		res.TotalTravel += d
		res.WorkerAssignments[w.ID]++
		delaySum += serviceStart - t.Start
		delayCount++
		if cfg.CollectDelays {
			res.Delays = append(res.Delays, serviceStart-t.Start)
		}
		return true
	}

	// pendingSweep retries every open pending task until nothing more fits —
	// an assignment may have unblocked dependants, or a worker may have
	// freed/arrived at this instant.
	pendingSweep := func(now float64) {
		for changed := true; changed; {
			changed = false
			for i := range in.Tasks {
				t := &in.Tasks[i]
				if assigned[t.ID] || t.Start > now || t.Deadline() < now {
					continue
				}
				if tryAssign(t.ID, now) {
					changed = true
				}
			}
		}
	}

	for _, ev := range timeline {
		now := ev.at
		// Process earlier wakeups first, in time order; sweeps may push
		// fresh wakeups that still precede now.
		for wake.len() > 0 && wake.min() <= now {
			pendingSweep(wake.pop())
		}
		if ev.task >= 0 {
			tryAssign(ev.task, now)
		}
		pendingSweep(now)
		res.Batches++ // one "decision point" per arrival, for comparability
	}
	// Drain remaining wakeups to a fixpoint: assignments made here set
	// busyUntil times that push their own wakeups, so dependants completed
	// after the last arrival still get their chance.
	for wake.len() > 0 {
		pendingSweep(wake.pop())
	}

	for i := range in.Tasks {
		if !assigned[in.Tasks[i].ID] {
			res.ExpiredTasks++
		}
	}
	if delayCount > 0 {
		res.MeanStartDelay = delaySum / float64(delayCount)
	} else {
		res.MeanStartDelay = math.NaN()
	}
	return res, nil
}
