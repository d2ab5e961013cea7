package obs

import (
	"sync/atomic"
	"time"
)

// BatchTrace is the per-batch instrumentation record: what one batch process
// cost, phase by phase, and what the candidate engine and the allocator did
// inside it. The platforms keep the recent traces in a Ring (served by
// GET /v1/trace on the server) and fold each one into a Registry
// (RecordBatch) for the aggregate view.
type BatchTrace struct {
	Batch   int     `json:"batch"`
	Time    float64 `json:"time"`
	Workers int     `json:"workers"`
	Tasks   int     `json:"tasks"`

	// Phase wall-clock timings, milliseconds.
	IndexBuildMS float64 `json:"index_build_ms"` // candidate-engine build
	AllocMS      float64 `json:"alloc_ms"`       // allocator + dependency fixpoint
	DispatchMS   float64 `json:"dispatch_ms"`    // worker-state updates for the dispatched pairs

	// WorkersRevalidated and WorkersRebuilt always read 0: every batch's
	// candidate engine is built from scratch, so no worker is revalidated
	// or rebuilt across batches. They are kept only because the benchmark
	// harness in perfbench/ reads them.
	WorkersRevalidated int `json:"workers_revalidated"`
	WorkersRebuilt     int `json:"workers_rebuilt"`

	// Travel-time memo outcomes: hits are lookups served from a memoized
	// travel time (BatchIndex.TravelCost), misses are fresh distance
	// evaluations.
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`

	// Pruning effectiveness: candidate pairs surviving the skill pruning
	// (every batch worker's skill pool) and probed with the exact
	// feasibility predicate, vs. pairs admitted into the index.
	CandidatesExamined int64 `json:"candidates_examined"`
	CandidatesAdmitted int64 `json:"candidates_admitted"`

	// Allocation results.
	Assigned int `json:"assigned"` // valid pairs
	Deferred int `json:"deferred"` // pairs dropped by the dependency fixpoint
	Rogue    int `json:"rogue"`    // pairs naming a worker outside the batch or an unknown task

	// DASC_Game best-response engine outcomes (zero when the allocator is not
	// game-based). Invariant: GameEvaluated + GameSkipped ==
	// GameActive · GameRounds — every active worker is either evaluated or
	// skipped exactly once per round; the naive sweep always has
	// GameSkipped == 0.
	GameRounds    int   `json:"game_rounds"`    // best-response rounds executed
	GameActive    int   `json:"game_active"`    // workers with a non-empty strategy set
	GameEvaluated int64 `json:"game_evaluated"` // best responses computed
	GameSkipped   int64 `json:"game_skipped"`   // clean workers skipped by the worklist
	GameMoved     int64 `json:"game_moved"`     // strategy switches

	// RequestID is the X-Request-ID of the HTTP request that triggered this
	// batch (POST /v1/tick); empty for ticker- or simulator-driven batches.
	// The tick→trace correlation hop: grep /v1/trace for the ID a client saw.
	RequestID string `json:"request_id,omitempty"`
}

// CacheHitRatio returns memo hits over total memo lookups, 0 when there were
// none.
func (t BatchTrace) CacheHitRatio() float64 {
	total := t.MemoHits + t.MemoMisses
	if total == 0 {
		return 0
	}
	return float64(t.MemoHits) / float64(total)
}

// BatchRec accumulates one batch's BatchTrace. The hot-path counters are
// atomics because the index build fans out across goroutines; the phase and
// outcome setters belong to the single platform goroutine driving the batch.
// Every method is nil-safe: a nil recorder is the disabled state and costs
// one nil check per call site.
type BatchRec struct {
	trace BatchTrace
	lap   time.Time // start of the current phase (StartPhases, Lap)

	examined   atomic.Int64
	admitted   atomic.Int64
	memoHits   atomic.Int64
	memoMisses atomic.Int64
}

// NewBatchRec starts a recorder for batch number batch at logical time t.
func NewBatchRec(batch int, t float64) *BatchRec {
	return &BatchRec{trace: BatchTrace{Batch: batch, Time: t}}
}

// AddExamined counts candidate pairs probed with the exact feasibility
// predicate.
func (r *BatchRec) AddExamined(n int64) {
	if r == nil {
		return
	}
	r.examined.Add(n)
}

// AddAdmitted counts candidate pairs admitted into the index.
func (r *BatchRec) AddAdmitted(n int64) {
	if r == nil {
		return
	}
	r.admitted.Add(n)
}

// AddMemoHits counts travel-time lookups served from a memo.
func (r *BatchRec) AddMemoHits(n int64) {
	if r == nil {
		return
	}
	r.memoHits.Add(n)
}

// AddMemoMisses counts fresh travel-time/distance evaluations.
func (r *BatchRec) AddMemoMisses(n int64) {
	if r == nil {
		return
	}
	r.memoMisses.Add(n)
}

// SetRequestID records the request ID of the HTTP request driving the batch.
func (r *BatchRec) SetRequestID(id string) {
	if r == nil {
		return
	}
	r.trace.RequestID = id
}

// SetPopulation records the batch's active workers and pending tasks.
func (r *BatchRec) SetPopulation(workers, tasks int) {
	if r == nil {
		return
	}
	r.trace.Workers, r.trace.Tasks = workers, tasks
}

// SetOutcome records the allocation results.
func (r *BatchRec) SetOutcome(assigned, deferred, rogue int) {
	if r == nil {
		return
	}
	r.trace.Assigned, r.trace.Deferred, r.trace.Rogue = assigned, deferred, rogue
}

// SetGameStats records the DASC_Game best-response engine's outcomes for
// the batch: rounds run, workers with a non-empty strategy set, and the
// evaluated/skipped/moved counters of the (worklist or naive) sweep.
func (r *BatchRec) SetGameStats(rounds, active int, evaluated, skipped, moved int64) {
	if r == nil {
		return
	}
	r.trace.GameRounds, r.trace.GameActive = rounds, active
	r.trace.GameEvaluated, r.trace.GameSkipped, r.trace.GameMoved = evaluated, skipped, moved
}

// StartPhases starts the phase stopwatch that Lap reads. The recorder reads
// the clock, not the batch code marking its phases, so the algorithmic
// packages stay free of wall-clock reads; a nil recorder reads no clock.
func (r *BatchRec) StartPhases() {
	if r == nil {
		return
	}
	r.lap = time.Now()
}

// Lap returns the time since the previous Lap (or StartPhases) and starts
// the next phase; zero on a nil recorder.
func (r *BatchRec) Lap() time.Duration {
	if r == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(r.lap)
	r.lap = now
	return d
}

// ObservePhases records the batch's phase timings.
func (r *BatchRec) ObservePhases(indexBuild, alloc, dispatch time.Duration) {
	if r == nil {
		return
	}
	r.trace.IndexBuildMS = float64(indexBuild) / float64(time.Millisecond)
	r.trace.AllocMS = float64(alloc) / float64(time.Millisecond)
	r.trace.DispatchMS = float64(dispatch) / float64(time.Millisecond)
}

// Finish folds the accumulated counters into the trace and returns it. The
// zero BatchTrace on a nil recorder.
func (r *BatchRec) Finish() BatchTrace {
	if r == nil {
		return BatchTrace{}
	}
	t := r.trace
	t.CandidatesExamined = r.examined.Load()
	t.CandidatesAdmitted = r.admitted.Load()
	t.MemoHits = r.memoHits.Load()
	t.MemoMisses = r.memoMisses.Load()
	return t
}
