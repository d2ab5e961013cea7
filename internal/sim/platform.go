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

	"dasc/internal/core"
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
	// CollectDelays records each completed task's start delay (service
	// start − task appearance) in Result.Delays for percentile analysis.
	CollectDelays bool
	// VerifyEngineCache cross-checks every batch's candidate engine against
	// the brute-force feasibility scan and aborts the run on divergence.
	// Differential-testing hook; expensive, leave off in production.
	VerifyEngineCache bool
	// VerifyGameWorklist cross-checks the worklist engine against the naive
	// sweep on every batch (identical assignments, rounds, update ratios) and
	// aborts the run on divergence. Ignored for non-game allocators.
	VerifyGameWorklist bool
	// OnBatch, when non-nil, observes the result of every batch that has at
	// least one active worker and one pending task; a batch without either
	// runs no allocator and is only counted in Result.Batches. It fires
	// after the batch's dispatches, so the result carries a complete
	// BatchTrace (phase timings included). Setting it enables per-batch
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
	// engine outcomes, allocation results.
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
	return &Platform{cfg: cfg, in: in}, nil
}

// Run executes the simulation to completion and returns aggregate metrics.
func (p *Platform) Run() (*Result, error) {
	in, cfg := p.in, p.cfg
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
	maxBatches := int((horizon-start)/cfg.BatchInterval) + 2

	k := core.NewKernel(core.KernelConfig{
		Allocator:          cfg.Allocator,
		ServiceTime:        cfg.ServiceTime,
		VerifyEngineCache:  cfg.VerifyEngineCache,
		VerifyGameWorklist: cfg.VerifyGameWorklist,
	})
	var delaySum float64
	var delayCount int
	for batch := 0; batch < maxBatches; batch++ {
		now := start + float64(batch)*cfg.BatchInterval
		// Instrumentation is driven by the observer: no OnBatch sink means
		// a nil recorder, and the recording sites reduce to nil checks.
		var rec *obs.BatchRec
		if cfg.OnBatch != nil {
			rec = obs.NewBatchRec(batch, now)
		}
		st, err := k.Step(in, now, rec)
		if err != nil {
			return nil, fmt.Errorf("sim: batch %d: %w", batch, err)
		}
		if st.Valid != nil {
			res.AssignedPairs += st.Valid.Size()
			res.AssignedWeight += st.Valid.WeightSum(in)
			res.WastedPairs += st.Raw.Size() - st.Valid.Size()
			res.RoguePairs += st.Rogue
			for _, d := range st.Dispatches {
				res.TotalTravel += d.Dist
				res.WorkerBusyTime += d.Finish - now
				if d.Valid {
					delay := d.ServiceStart - in.Task(d.Pair.Task).Start
					res.CompletedTasks++
					delaySum += delay
					delayCount++
					if cfg.CollectDelays {
						res.Delays = append(res.Delays, delay)
					}
				}
			}
			if cfg.OnBatch != nil {
				cfg.OnBatch(BatchResult{
					Index: batch, Time: now,
					Workers: st.Workers, Tasks: st.Tasks,
					Assignment: st.Valid,
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

	for i := range in.Workers {
		if n := k.Worker(&in.Workers[i]).Done; n > 0 {
			res.WorkerAssignments[in.Workers[i].ID] = n
		}
	}
	for i := range in.Tasks {
		if tb := k.Task(in.Tasks[i].ID); !tb.Assigned && !tb.Botched {
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
