// Package server implements the dependency-aware spatial-crowdsourcing
// platform as a long-running service: requesters POST tasks (with
// dependencies), workers POST themselves, and every batch tick the
// configured allocator assigns the active workers to the pending tasks.
// Package platform.go holds the concurrency-safe state machine; http.go
// exposes it as a JSON HTTP API.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// Platform is the mutable, concurrency-safe platform state. Logical time is
// supplied by the caller (the HTTP layer maps wall-clock or explicit ticks
// onto it); it must never go backwards.
type Platform struct {
	mu sync.Mutex

	alloc     core.Allocator
	dist      geo.DistanceFunc
	journal   *Journal
	replaying bool
	// kernel runs every tick's batch and owns the dispatch state: worker
	// states, the assigned/botched/finish books and the population.
	kernel *core.Kernel

	// Durability policy: after snapEvery ticks the platform snapshots its
	// state to snapPath and rotates the journal (snapshot.go).
	snapPath       string
	snapEvery      int
	ticksSinceSnap int

	// maxBody caps HTTP request bodies (http.go); notReady gates mutating
	// endpoints while the process is still recovering (GET /v1/readyz).
	// Zero value = ready, so in-process embedders need no extra call.
	maxBody  int64
	notReady atomic.Bool

	// ing is the group-commit ingest pipeline (ingest.go); nil when
	// Config.IngestQueue is zero and registrations commit synchronously.
	ing *ingest

	// view is the atomically swapped read snapshot (view.go): every mutation
	// republishes it under mu, and the read endpoints serve from it without
	// touching the big mutex.
	view atomic.Pointer[readView]

	// reg and traces are the server's observability surface: every tick is
	// recorded as an obs.BatchTrace, folded into reg (GET /v1/metrics) and
	// buffered in traces (GET /v1/trace). Always on — the per-tick cost is
	// a handful of atomic adds and three clock reads.
	reg    *obs.Registry
	traces *obs.TraceRing
	// Hot-path ingest counters resolved once at construction (a registry
	// lookup is a mutex + map access the per-request path should not pay).
	cIngEnq *obs.Counter
	cIngRej *obs.Counter
	// The candidate-engine counters statsLocked reads on every publish.
	cMemoHits   *obs.Counter
	cMemoMisses *obs.Counter

	// log is the structured event logger (never nil — discard by default);
	// mw is the per-request telemetry state behind instrument (middleware.go).
	log *slog.Logger
	mw  *middleware

	workers []model.Worker
	tasks   []model.Task

	// assignLog lists every valid pair in dispatch order, one per assigned
	// task. It only grows (a snapshot restore replaces it on an empty
	// platform), so read views alias it (view.go).
	assignLog []model.Pair

	now     float64
	batches int
	wasted  int
	rogue   int
}

// Config configures a Platform.
type Config struct {
	// Allocator decides batch assignments. Required.
	Allocator core.Allocator
	// ServiceTime is the on-site duration per task.
	ServiceTime float64
	// Dist is the travel metric; nil means Euclidean.
	Dist geo.DistanceFunc
	// Journal, when non-nil, receives every registration and tick so the
	// platform state can be rebuilt after a restart via Replay. Journal
	// write failures are returned to the caller of the mutating operation.
	Journal *Journal
	// VerifyEngineCache cross-checks every tick's candidate engine against
	// the brute-force feasibility scan and fails the tick on divergence.
	// Differential-testing hook; expensive.
	VerifyEngineCache bool
	// VerifyGameWorklist cross-checks the worklist engine against the naive
	// sweep on every tick (identical assignments, rounds, update ratios) and
	// fails the tick on divergence. Ignored for non-game allocators.
	VerifyGameWorklist bool
	// TraceDepth is how many recent batch traces GET /v1/trace can serve;
	// zero means obs.DefaultTraceDepth.
	TraceDepth int
	// SnapshotPath, when non-empty, is where state snapshots are written
	// (atomically, temp-file + rename). POST /v1/snapshot writes one on
	// demand; with SnapshotEvery > 0 one is also written every that many
	// ticks. Each snapshot rotates (rewinds) the journal.
	SnapshotPath string
	// SnapshotEvery is the automatic snapshot cadence in ticks; zero means
	// manual snapshots only.
	SnapshotEvery int
	// MaxBodyBytes caps HTTP request bodies; zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// IngestQueue, when positive, enables the group-commit ingest pipeline:
	// RegisterWorker/RegisterTask stage registrations through a bounded
	// admission queue of this capacity and a single committer goroutine
	// drains it, journaling each drain as one multi-entry record with a
	// single fsync before publishing (ingest.go). A full queue rejects with
	// ErrIngestBacklog (HTTP 429 + Retry-After). Platforms with the pipeline
	// enabled must be Close()d to stop the committer.
	IngestQueue int
	// IngestBatch caps how many staged registrations one drain commits
	// together; zero means DefaultIngestBatch. Only meaningful with
	// IngestQueue > 0.
	IngestBatch int
	// IngestWait is the group-commit formation window: after the first
	// staged registration of a drain, the committer keeps gathering for up
	// to this long (or until IngestBatch) before committing. Zero commits
	// immediately with whatever has queued. A sub-millisecond window trades
	// bounded per-request latency for much larger drains — and therefore
	// far fewer fsyncs — under concurrent load (cf. Postgres commit_delay).
	// Only meaningful with IngestQueue > 0.
	IngestWait time.Duration
	// Logger receives the platform's structured events (snapshot rotations,
	// journal failures, ingest drain failures, the sampled access log). Nil
	// means discard — embedders that never think about logging get silence.
	Logger *slog.Logger
	// AccessLogEvery samples the HTTP access log: every Nth instrumented
	// request logs one line (1 = every request). Zero or negative disables
	// the access log; lifecycle and failure events log regardless.
	AccessLogEvery int
}

// NewPlatform creates an empty platform.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.Allocator == nil {
		return nil, errors.New("server: Config.Allocator is required")
	}
	if cfg.ServiceTime < 0 {
		return nil, fmt.Errorf("server: negative service time %v", cfg.ServiceTime)
	}
	dist := cfg.Dist
	if dist == nil {
		dist = geo.Euclidean
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("server: negative snapshot cadence %d", cfg.SnapshotEvery)
	}
	if cfg.SnapshotEvery > 0 && cfg.SnapshotPath == "" {
		return nil, errors.New("server: Config.SnapshotEvery set without Config.SnapshotPath")
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("server: negative request body cap %d", cfg.MaxBodyBytes)
	}
	if cfg.IngestQueue < 0 {
		return nil, fmt.Errorf("server: negative ingest queue capacity %d", cfg.IngestQueue)
	}
	if cfg.IngestBatch < 0 {
		return nil, fmt.Errorf("server: negative ingest batch cap %d", cfg.IngestBatch)
	}
	if cfg.IngestWait < 0 {
		return nil, fmt.Errorf("server: negative ingest formation window %v", cfg.IngestWait)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	p := &Platform{
		alloc:   cfg.Allocator,
		dist:    dist,
		journal: cfg.Journal,
		kernel: core.NewKernel(core.KernelConfig{
			Allocator:          cfg.Allocator,
			ServiceTime:        cfg.ServiceTime,
			VerifyEngineCache:  cfg.VerifyEngineCache,
			VerifyGameWorklist: cfg.VerifyGameWorklist,
		}),
		snapPath:  cfg.SnapshotPath,
		snapEvery: cfg.SnapshotEvery,
		maxBody:   maxBody,
		reg:       obs.NewRegistry(),
		traces:    obs.NewTraceRing(cfg.TraceDepth),
		log:       orDiscard(cfg.Logger),
	}
	p.mw = newMiddleware(p.log, cfg.AccessLogEvery)
	p.cIngEnq = p.reg.Counter(obs.MIngestEnqueuedTotal)
	p.cIngRej = p.reg.Counter(obs.MIngestRejectedTotal)
	p.cMemoHits = p.reg.Counter(obs.MMemoHitsTotal)
	p.cMemoMisses = p.reg.Counter(obs.MMemoMissesTotal)
	// Process-level runtime gauges (dasc_runtime_*), sampled when scraped.
	obs.RegisterRuntimeMetrics(p.reg)
	// The journal reports durability metrics through the platform registry
	// so appends/fsyncs show up on GET /v1/metrics, and journal failures
	// (append, flush, fsync) land in the structured log.
	p.journal.SetMetrics(p.reg)
	p.journal.SetLogger(p.log)
	p.publishView()
	if cfg.IngestQueue > 0 {
		p.ing = newIngest(cfg.IngestQueue, cfg.IngestBatch, cfg.IngestWait)
		go p.committer()
	}
	return p, nil
}

// Close stops the ingest committer after it commits everything already
// admitted to the queue. Idempotent; a no-op on platforms without the
// pipeline. The journal is not closed — its owner (whoever opened it) is.
func (p *Platform) Close() error {
	if p.ing != nil {
		p.ing.shutdown()
	}
	return nil
}

func (p *Platform) publishView() {
	p.mu.Lock()
	p.publishViewLocked()
	p.mu.Unlock()
}

// SetReady flips the platform's readiness (GET /v1/readyz; mutating
// endpoints return 503 while not ready). Platforms start ready; a serving
// process clears readiness before recovery and restores it after.
func (p *Platform) SetReady(ready bool) { p.notReady.Store(!ready) }

// Ready reports whether the platform accepts mutating requests.
func (p *Platform) Ready() bool { return !p.notReady.Load() }

// finiteField pairs a registration field with its wire name for non-finite
// rejection: NaN never compares true against a negativity guard (w.Wait < 0
// is false for NaN), so without these checks NaN/±Inf coordinates, times and
// budgets would pass validation and poison feasibility arithmetic.
type finiteField struct {
	name string
	v    float64
}

func checkFinite(fields ...finiteField) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("non-finite field %s (%v)", f.name, f.v)
		}
	}
	return nil
}

// validateWorker checks every worker field the platform admits: all-finite
// floats, non-negative parameters, at least one skill.
func validateWorker(w *model.Worker) error {
	if err := checkFinite(
		finiteField{"x", w.Loc.X}, finiteField{"y", w.Loc.Y},
		finiteField{"start", w.Start}, finiteField{"wait", w.Wait},
		finiteField{"velocity", w.Velocity}, finiteField{"max_dist", w.MaxDist},
	); err != nil {
		return fmt.Errorf("server: worker: %w", err)
	}
	if w.Wait < 0 || w.Velocity < 0 || w.MaxDist < 0 {
		return errors.New("server: negative worker parameter")
	}
	if w.Skills.IsEmpty() {
		return errors.New("server: worker has no skills")
	}
	return nil
}

// validateTask checks the dependency-independent task fields; dependency
// validation needs the registry and stays under the platform lock
// (closeDepsLocked).
func validateTask(t *model.Task) error {
	if err := checkFinite(
		finiteField{"x", t.Loc.X}, finiteField{"y", t.Loc.Y},
		finiteField{"start", t.Start}, finiteField{"wait", t.Wait},
		finiteField{"weight", t.Weight},
	); err != nil {
		return fmt.Errorf("server: task: %w", err)
	}
	if t.Wait < 0 {
		return errors.New("server: negative task waiting time")
	}
	if t.Requires < 0 {
		return errors.New("server: negative required skill")
	}
	return nil
}

// closeDepsLocked validates t's dependency list against the registered tasks
// plus staged (tasks committed earlier in the same ingest drain, whose IDs
// follow len(p.tasks)) and returns the transitively closed list. Dependencies
// must reference already-registered tasks, which keeps the dependency graph
// acyclic by construction (as in the paper's generators, creation order is
// appearance order).
//
// requires: p.mu
func (p *Platform) closeDepsLocked(t *model.Task, staged []model.Task) ([]model.TaskID, error) {
	n := len(p.tasks) + len(staged)
	lookup := func(id model.TaskID) *model.Task {
		if int(id) < len(p.tasks) {
			return &p.tasks[id]
		}
		return &staged[int(id)-len(p.tasks)]
	}
	seen := make(map[model.TaskID]bool, len(t.Deps))
	for _, d := range t.Deps {
		if d < 0 || int(d) >= n {
			return nil, fmt.Errorf("server: dependency t%d not registered yet", d)
		}
		if seen[d] {
			return nil, fmt.Errorf("server: duplicate dependency t%d", d)
		}
		seen[d] = true
	}
	// Keep dependency sets transitively closed, the library invariant.
	closed := append([]model.TaskID(nil), t.Deps...)
	for _, d := range t.Deps {
		for _, dd := range lookup(d).Deps {
			if !seen[dd] {
				seen[dd] = true
				closed = append(closed, dd)
			}
		}
	}
	return closed, nil
}

// AddWorker registers a worker and returns its ID. Fields other than the ID
// are taken from w verbatim; validation mirrors model.Instance.Validate.
// The journal append happens BEFORE the in-memory publish: a failed append
// returns ID 0 with an ErrJournal-classified error and leaves no trace in
// served state, so replayed state can never diverge from what was
// acknowledged.
func (p *Platform) AddWorker(w model.Worker) (model.WorkerID, error) {
	if err := validateWorker(&w); err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w.ID = model.WorkerID(len(p.workers))
	if p.journal != nil && !p.replaying {
		if err := p.journal.Worker(w); err != nil {
			return 0, journalFailure(err)
		}
	}
	p.workers = append(p.workers, w)
	p.publishViewLocked()
	return w.ID, nil
}

// AddTask registers a task and returns its ID, with the same journal-first
// atomicity as AddWorker: validation, then the journal append, then the
// in-memory publish — an error at any stage returns ID 0 and changes
// nothing.
func (p *Platform) AddTask(t model.Task) (model.TaskID, error) {
	if err := validateTask(&t); err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	closed, err := p.closeDepsLocked(&t, nil)
	if err != nil {
		return 0, err
	}
	t.Deps = closed
	t.ID = model.TaskID(len(p.tasks))
	if p.journal != nil && !p.replaying {
		if err := p.journal.Task(t); err != nil {
			return 0, journalFailure(err)
		}
	}
	p.tasks = append(p.tasks, t)
	p.publishViewLocked()
	return t.ID, nil
}

// BatchOutcome reports one tick's allocation.
type BatchOutcome struct {
	Batch    int          `json:"batch"`
	Time     float64      `json:"time"`
	Workers  int          `json:"active_workers"`
	Tasks    int          `json:"pending_tasks"`
	Assigned []model.Pair `json:"assigned"`
	Wasted   int          `json:"wasted"`
	// Rogue counts allocator pairs dropped for naming a worker that was not
	// active in the batch (misbehaving custom Allocator); they are never
	// dispatched.
	Rogue int `json:"rogue"`
	// MemoHits counts this tick's travel-time lookups served from the
	// candidate engine's memo.
	MemoHits int64 `json:"memo_hits"`
}

// Tick advances logical time to now and runs one batch process. Time must
// not go backwards and must be finite: a NaN would poison the logical clock
// (now < p.now is false for every subsequent time, so the backwards guard
// could never fire again).
func (p *Platform) Tick(now float64) (*BatchOutcome, error) {
	return p.TickTagged(now, "")
}

// TickTagged is Tick carrying the correlation ID of the request that
// triggered the batch; the ID lands on the batch's trace (GET /v1/trace), so
// a client can find exactly the batch its POST /v1/tick ran. Empty means an
// untagged (ticker- or replay-driven) batch.
func (p *Platform) TickTagged(now float64, requestID string) (*BatchOutcome, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return nil, fmt.Errorf("server: non-finite tick time %v", now)
	}
	if now < p.now {
		return nil, fmt.Errorf("server: time going backwards (%v < %v)", now, p.now)
	}
	if p.journal != nil && !p.replaying {
		if err := p.journal.TickAt(now); err != nil {
			return nil, journalFailure(err)
		}
	}
	p.now = now
	out := &BatchOutcome{Batch: p.batches, Time: now, Assigned: []model.Pair{}}
	p.batches++
	rec := obs.NewBatchRec(out.Batch, now)
	rec.SetRequestID(requestID)

	in := &model.Instance{Workers: p.workers, Tasks: p.tasks, Dist: p.dist}
	st, err := p.kernel.Step(in, now, rec)
	if err != nil {
		return nil, fmt.Errorf("server: tick %d: %w", out.Batch, err)
	}
	out.Workers, out.Tasks, out.Rogue = st.Workers, st.Tasks, st.Rogue
	if st.Valid != nil {
		out.Assigned = st.Valid.Pairs
		out.Wasted = st.Raw.Size() - st.Valid.Size()
	}
	p.wasted += out.Wasted
	p.rogue += out.Rogue
	for _, d := range st.Dispatches {
		if d.Valid {
			p.logAssignmentLocked(d)
		}
	}
	p.recordTick(out, rec)
	p.maybeSnapshotLocked()
	return out, nil
}

// logAssignmentLocked records a valid dispatch in the assignment log. A
// task that was already assigned (a misbehaving allocator dispatched it
// twice) keeps one entry, the last dispatch's, as in the kernel's books.
// Read views alias the log, so that rewrite happens on a fresh copy.
//
// requires: p.mu
func (p *Platform) logAssignmentLocked(d core.Dispatch) {
	if !d.Again {
		p.assignLog = append(p.assignLog, d.Pair)
		return
	}
	log := append([]model.Pair(nil), p.assignLog...)
	for k := range log {
		if log[k].Task == d.Pair.Task {
			log[k] = d.Pair
		}
	}
	p.assignLog = log
}

// recordTick finalises the tick's trace, copies the memo hits onto the
// outcome, publishes both to the trace ring and the metric registry, and
// swaps in a fresh read view (ticks move the clock and may change the
// assignment bookkeeping).
//
// requires: p.mu
func (p *Platform) recordTick(out *BatchOutcome, rec *obs.BatchRec) {
	tr := rec.Finish()
	out.MemoHits = tr.MemoHits
	p.traces.Add(tr)
	obs.RecordBatch(p.reg, tr)
	p.publishViewLocked()
}

// Metrics returns the platform's metric registry (GET /v1/metrics).
func (p *Platform) Metrics() *obs.Registry { return p.reg }

// Traces returns the platform's recent batch traces (GET /v1/trace).
func (p *Platform) Traces() *obs.TraceRing { return p.traces }

// Stats is a snapshot of platform counters.
type Stats struct {
	Now           float64 `json:"now"`
	Batches       int     `json:"batches"`
	Workers       int     `json:"workers"`
	Tasks         int     `json:"tasks"`
	AssignedTasks int     `json:"assigned_tasks"`
	WastedPairs   int     `json:"wasted_pairs"`
	RoguePairs    int     `json:"rogue_pairs"`
	Allocator     string  `json:"allocator"`
	// Cumulative travel-time memo behaviour across all ticks (also
	// exposed, with the full per-phase breakdown, on /v1/metrics).
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
}

// Snapshot returns current counters.
func (p *Platform) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statsLocked()
}

// requires: p.mu
func (p *Platform) statsLocked() Stats {
	return Stats{
		Now:           p.now,
		Batches:       p.batches,
		Workers:       len(p.workers),
		Tasks:         len(p.tasks),
		AssignedTasks: len(p.assignLog),
		WastedPairs:   p.wasted,
		RoguePairs:    p.rogue,
		Allocator:     p.alloc.Name(),

		MemoHits:   p.cMemoHits.Value(),
		MemoMisses: p.cMemoMisses.Value(),
	}
}

// Assignments returns every valid pair so far, sorted by task ID.
func (p *Platform) Assignments() *model.Assignment {
	p.mu.Lock()
	defer p.mu.Unlock()
	return sortedAssignment(p.assignLog)
}

// Instance returns a deep copy of the current worker and task registries,
// suitable for archiving via the dataset codec.
func (p *Platform) Instance() *model.Instance {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.instanceLocked()
}

// requires: p.mu
func (p *Platform) instanceLocked() *model.Instance {
	in := &model.Instance{
		Workers: append([]model.Worker(nil), p.workers...),
		Tasks:   make([]model.Task, len(p.tasks)),
	}
	for i, t := range p.tasks {
		t.Deps = append([]model.TaskID(nil), t.Deps...)
		in.Tasks[i] = t
	}
	for i := range in.Workers {
		in.Workers[i].Skills = in.Workers[i].Skills.Clone()
	}
	return in
}
