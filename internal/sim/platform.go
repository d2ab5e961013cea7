// Package sim implements the dependency-aware spatial-crowdsourcing
// platform: workers and tasks appear over time, and every BatchInterval time
// units the platform runs an allocator over the currently active workers and
// pending tasks (the paper's batch process, Section II-D). Assigned workers
// travel to their tasks, conduct them once the dependencies have finished,
// and become available again; tasks whose deadline passes unassigned expire.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// Config parameterises a simulation run.
type Config struct {
	// Allocator decides each batch's assignment. Required.
	Allocator core.Allocator
	// BatchInterval is the time between batch processes; the paper suggests
	// e.g. 5 seconds. Zero means 5.
	BatchInterval float64
	// ServiceTime is how long conducting a task takes once the worker is on
	// site and the dependencies are finished. The paper constrains only the
	// service *start*, so the default is 0 (instantaneous).
	ServiceTime float64
	// ReuseWorkers lets a worker take another task after finishing one, as
	// long as the current time is within its availability window
	// (Definition 1: after finishing, the worker "becomes available
	// again"). Default true; set DisableReuse to turn it off.
	DisableReuse bool
	// MaxBatches caps the batch loop as a safety net; zero derives it from
	// the time horizon.
	MaxBatches int
	// CollectDelays records each completed task's start delay (service
	// start − task appearance) in Result.Delays for percentile analysis.
	CollectDelays bool
	// DisableEngineCache rebuilds every batch's candidate engine from
	// scratch instead of carrying it across batches incrementally
	// (core.EngineCache). The two builds agree exactly; the flag exists for
	// A/B benchmarks and debugging.
	DisableEngineCache bool
	// VerifyEngineCache cross-checks the incrementally maintained candidate
	// engine against a from-scratch build every batch and aborts the run on
	// divergence. Differential-testing hook; expensive, leave off in
	// production.
	VerifyEngineCache bool
	// DisableGameWorklist runs DASC_Game allocators with the naive full
	// best-response sweep instead of the incremental worklist engine — the
	// game-side analogue of DisableEngineCache. Ignored for non-game
	// allocators.
	DisableGameWorklist bool
	// VerifyGameWorklist cross-checks the worklist engine against the naive
	// sweep on every batch (identical assignments, rounds, update ratios) and
	// aborts the run on divergence. Ignored for non-game allocators.
	VerifyGameWorklist bool
	// OnBatch, when non-nil, observes every batch result. It fires after the
	// batch's dispatches, so the result carries a complete BatchTrace
	// (phase timings included). Setting it enables per-batch
	// instrumentation; with it nil the batch loop runs with a nil recorder
	// and pays nothing.
	OnBatch func(BatchResult)
}

// BatchResult is what one batch process produced.
type BatchResult struct {
	Index      int     // batch number, from 0
	Time       float64 // batch timestamp
	Workers    int     // active workers presented to the allocator
	Tasks      int     // pending tasks presented to the allocator
	Assignment *model.Assignment
	// Trace is the batch's instrumentation record: phase timings, candidate
	// engine and cache outcomes, allocation results.
	Trace obs.BatchTrace
}

// Result aggregates a whole run.
type Result struct {
	Batches       int
	AssignedPairs int // Σ_b (valid pairs of M_b) — the paper's total score
	// AssignedWeight is the weighted objective Σ w_t over valid pairs; it
	// equals AssignedPairs under the paper's unit weights.
	AssignedWeight float64
	WastedPairs    int     // dependency-violating pairs executed by oblivious allocators
	CompletedTasks int     // tasks actually conducted (= AssignedPairs)
	ExpiredTasks   int     // tasks whose deadline passed unassigned
	TotalTravel    float64 // distance covered by all workers
	// WorkerBusyTime sums, over executed dispatches, the span from
	// assignment to task completion (travel + dependency wait + service) —
	// divide by worker count and horizon for a utilisation figure.
	WorkerBusyTime float64
	// MeanStartDelay is the mean of (service start − task appearance) over
	// completed tasks; NaN when nothing completed.
	MeanStartDelay float64
	// Delays holds every completed task's start delay when
	// Config.CollectDelays is set; nil otherwise.
	Delays []float64
	// RoguePairs counts assignment pairs dropped because they named a worker
	// not active in the batch (only a misbehaving custom Allocator produces
	// them). They score nothing and are never dispatched.
	RoguePairs int
	// WorkerAssignments[w] counts tasks worker w conducted.
	WorkerAssignments map[model.WorkerID]int
}

// Platform simulates one instance under one configuration.
type Platform struct {
	cfg Config
	in  *model.Instance
}

// New creates a platform for the instance. The instance must validate.
func New(in *model.Instance, cfg Config) (*Platform, error) {
	if cfg.Allocator == nil {
		return nil, errors.New("sim: Config.Allocator is required")
	}
	if cfg.BatchInterval <= 0 {
		cfg.BatchInterval = 5
	}
	if cfg.ServiceTime < 0 {
		return nil, fmt.Errorf("sim: negative service time %v", cfg.ServiceTime)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if cfg.DisableGameWorklist {
		if g, ok := cfg.Allocator.(*core.Game); ok {
			cfg.Allocator = g.WithWorklistDisabled(true)
		}
	}
	return &Platform{cfg: cfg, in: in}, nil
}

// Run executes the simulation to completion and returns aggregate metrics.
func (p *Platform) Run() (*Result, error) {
	in, cfg := p.in, p.cfg
	dist := in.Distance()

	type wstate struct {
		locX, locY float64
		busyUntil  float64
		distUsed   float64
	}
	ws := make([]wstate, len(in.Workers))
	for i := range in.Workers {
		ws[i] = wstate{locX: in.Workers[i].Loc.X, locY: in.Workers[i].Loc.Y}
	}

	assigned := make(map[model.TaskID]bool)    // ever validly assigned (dependency obligation met)
	botched := make(map[model.TaskID]bool)     // consumed by an invalid assignment
	finishAt := make(map[model.TaskID]float64) // completion time per assigned task
	res := &Result{WorkerAssignments: map[model.WorkerID]int{}}

	// Time horizon: nothing can happen after every worker window and every
	// task deadline has passed.
	horizon := 0.0
	start := math.Inf(1)
	for i := range in.Workers {
		horizon = math.Max(horizon, in.Workers[i].Expiry())
		start = math.Min(start, in.Workers[i].Start)
	}
	for i := range in.Tasks {
		horizon = math.Max(horizon, in.Tasks[i].Deadline())
		start = math.Min(start, in.Tasks[i].Start)
	}
	if math.IsInf(start, 1) { // empty instance
		return res, nil
	}
	maxBatches := cfg.MaxBatches
	if maxBatches <= 0 {
		maxBatches = int((horizon-start)/cfg.BatchInterval) + 2
	}

	var delaySum float64
	var delayCount int

	// The candidate engine is carried across batches: unmoved workers'
	// strategy sets are revalidated by time arithmetic instead of rebuilt.
	cache := core.NewEngineCache()

	// Batch time only grows, so a worker that expired (or, without reuse,
	// has served) and a task that was consumed or missed its deadline never
	// return: the population drops them instead of rescanning them.
	var pop core.Population
	pop.Admit(len(in.Workers), len(in.Tasks))

	for batch := 0; batch < maxBatches; batch++ {
		now := start + float64(batch)*cfg.BatchInterval

		// Active workers: appeared, within window, not busy.
		var bws []core.BatchWorker
		var wIdx []int
		pop.Workers(func(i int) bool {
			w := &in.Workers[i]
			if now > w.Expiry() || cfg.DisableReuse && res.WorkerAssignments[w.ID] > 0 {
				return false
			}
			if w.Start > now || ws[i].busyUntil > now {
				return true
			}
			bws = append(bws, core.BatchWorker{
				W:          w,
				Loc:        geo.Pt(ws[i].locX, ws[i].locY),
				ReadyAt:    now,
				DistBudget: w.MaxDist - ws[i].distUsed,
			})
			wIdx = append(wIdx, i)
			return true
		})
		// Pending tasks: appeared, deadline not passed, never assigned.
		var tasks []*model.Task
		pop.Tasks(func(i int) bool {
			t := &in.Tasks[i]
			if assigned[t.ID] || botched[t.ID] || t.Deadline() < now {
				return false
			}
			if t.Start > now {
				return true
			}
			tasks = append(tasks, t)
			return true
		})

		if len(bws) > 0 && len(tasks) > 0 {
			// assigned doubles as the batch's Satisfied set: it changes
			// only below, after the allocator and the fixpoint have read it.
			b := core.NewBatch(in, bws, tasks, assigned)
			// Instrumentation is driven by the observer: no OnBatch sink
			// means a nil recorder, and the engine's recording sites reduce
			// to nil checks.
			var rec *obs.BatchRec
			var indexD, allocD, dispatchD time.Duration
			var phaseStart time.Time
			if cfg.OnBatch != nil {
				rec = obs.NewBatchRec(batch, now)
				b.SetRecorder(rec)
				phaseStart = time.Now()
			}
			if !cfg.DisableEngineCache {
				cache.Attach(b)
				if cfg.VerifyEngineCache {
					if err := b.VerifyIndex(); err != nil {
						return nil, fmt.Errorf("sim: batch %d: engine cache diverged: %w", batch, err)
					}
				}
			} else if rec != nil {
				// Force the lazy build inside the timed window so the index
				// phase is attributed correctly (the build is idempotent).
				b.Index()
			}
			if rec != nil {
				indexD = time.Since(phaseStart)
				phaseStart = time.Now()
			}
			if cfg.VerifyGameWorklist {
				if g, ok := cfg.Allocator.(*core.Game); ok {
					if err := g.VerifyWorklist(b); err != nil {
						return nil, fmt.Errorf("sim: batch %d: game worklist diverged: %w", batch, err)
					}
				}
			}
			m := cfg.Allocator.Assign(b)
			rogue := core.DropUnknownWorkers(b, m)
			res.RoguePairs += rogue
			// Allocators may return raw assignments (the paper's Closest and
			// Random baselines ignore dependencies); only the valid subset
			// scores and satisfies dependency obligations. Invalid pairs
			// still execute — the worker travels and the task is consumed —
			// they are simply wasted, exactly the penalty the paper charges
			// the oblivious baselines.
			valid := core.DependencyFixpoint(b, m)
			if rec != nil {
				allocD = time.Since(phaseStart)
			}
			res.AssignedPairs += valid.Size()
			res.AssignedWeight += valid.WeightSum(in)
			res.WastedPairs += m.Size() - valid.Size()

			// Mark valid pairs as assigned (the dependency obligation is met
			// at assignment time, Definition 3 constraint 4) and botched
			// tasks as consumed without satisfying anything.
			for _, pair := range valid.Pairs {
				assigned[pair.Task] = true
			}
			for _, pair := range m.Pairs {
				botched[pair.Task] = true // valid ones are overridden below
			}
			for _, pair := range valid.Pairs {
				delete(botched, pair.Task)
			}
			order := core.DispatchOrder(in, m)
			validTask := valid.TaskSet()
			if rec != nil {
				phaseStart = time.Now()
			}
			for _, pair := range order {
				// DropUnknownWorkers already removed pairs naming workers
				// outside the batch; the guard stays as a backstop so a miss
				// can never dispatch through batch index 0.
				bi := b.WorkerIndex(pair.Worker)
				if bi < 0 {
					res.RoguePairs++
					rogue++
					continue
				}
				i := wIdx[bi]
				w := &in.Workers[i]
				t := in.Task(pair.Task)
				from := geo.Pt(ws[i].locX, ws[i].locY)
				d := dist(from, t.Loc)
				travel := w.TravelTime(from, t.Loc, dist)
				arrive := math.Max(now, t.Start) + travel
				serviceStart := arrive
				for _, dep := range t.Deps {
					if fa, ok := finishAt[dep]; ok && fa > serviceStart {
						serviceStart = fa
					}
				}
				finish := serviceStart + cfg.ServiceTime
				ws[i].locX, ws[i].locY = t.Loc.X, t.Loc.Y
				ws[i].distUsed += d
				ws[i].busyUntil = finish
				res.TotalTravel += d
				res.WorkerBusyTime += finish - now
				res.WorkerAssignments[w.ID]++
				if validTask[pair.Task] {
					finishAt[t.ID] = finish
					res.CompletedTasks++
					delaySum += serviceStart - t.Start
					delayCount++
					if cfg.CollectDelays {
						res.Delays = append(res.Delays, serviceStart-t.Start)
					}
				}
			}
			if rec != nil {
				dispatchD = time.Since(phaseStart)
				rec.SetPopulation(len(bws), len(tasks))
				rec.SetOutcome(valid.Size(), m.Size()-valid.Size(), rogue)
				rec.ObservePhases(indexD, allocD, dispatchD)
				cfg.OnBatch(BatchResult{
					Index: batch, Time: now,
					Workers: len(bws), Tasks: len(tasks),
					Assignment: valid,
					Trace:      rec.Finish(),
				})
			}
		}
		res.Batches++
		//lint:epsfloat-ok loop bound on the synthesized batch grid; both sides are recomputed identically every run, and a tolerance would change the batch count
		if now >= horizon {
			break
		}
	}

	for i := range in.Tasks {
		id := in.Tasks[i].ID
		if !assigned[id] && !botched[id] {
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
