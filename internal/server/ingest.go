package server

import (
	"errors"
	"sync"
	"time"

	"dasc/internal/dataset"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// This file is the group commit every registration goes through: POST
// /v1/workers and /v1/tasks, AddWorker/AddTask, and journal replay. It is
// the writer-queue scheme of LevelDB's DBImpl::Write. A registration
// appends itself to a bounded pending list; one that finds no commit in
// flight becomes the leader, takes up to IngestBatch pending entries (its
// own first) and runs the one commit function:
//
//	assign IDs → close dependencies → journal ONE record, ONE fsync →
//	publish → answer every waiter → hand leadership to the oldest waiter
//
// A lone registrant therefore commits inline, on its own goroutine, at the
// cost of a plain locked append. Registrants that arrive while a commit is
// in flight wait in the pending list, and the next leader commits them
// together: under -fsync=always one disk flush serves the whole group, and
// the group grows with the arrival rate. Backpressure is explicit: a full
// pending list fails fast with ErrIngestBacklog and the HTTP layer answers
// 429 + Retry-After.
//
// Ordering: the commit journals and publishes under the platform mutex,
// the same mutex ticks and snapshots take, so journal order always equals
// publish order and a snapshot rotation can never cut a group in half.
// Lock order is p.mu before ingest.mu; a leader never holds both while it
// waits.

// DefaultIngestBatch caps how many pending registrations one group commit
// journals as a single record when Config.IngestBatch is zero.
const DefaultIngestBatch = 256

// DefaultIngestQueue bounds the pending registrations when
// Config.IngestQueue is zero.
const DefaultIngestQueue = 4096

// ErrIngestBacklog reports a full pending list: the client should retry
// after a moment (HTTP 429 + Retry-After). Registrations are not queued
// without bound behind a slow disk — the bound converts an overload into
// fast feedback.
var ErrIngestBacklog = errors.New("server: ingest queue full")

// ErrPlatformClosed reports a registration attempted after Close.
var ErrPlatformClosed = errors.New("server: platform closed")

type ingestKind uint8

const (
	ingestWorker ingestKind = iota
	ingestTask
)

// ingestReq is one registration on its way through the group commit. reqID
// is the HTTP correlation ID (middleware.go), reported on the drain trace
// that commits the entry; empty for untagged registrations. id and err are
// the commit's answer. wake (capacity 1) is signalled exactly once per
// wait: when a leader has answered the request (done is then true) or when
// the request is handed leadership (done is false).
type ingestReq struct {
	kind   ingestKind
	worker model.Worker
	task   model.Task
	reqID  string

	id   int
	err  error
	done bool
	wake chan struct{}
}

// reqPool recycles ingestReqs (and their wake channels) between
// registrations. A returned request's wake channel is empty: it was either
// never signalled (a lone leader) or signalled once and received. putReq
// zeroes the payload so pooled requests do not retain skill or dependency
// slices.
var reqPool = sync.Pool{New: func() any {
	return &ingestReq{wake: make(chan struct{}, 1)}
}}

func getReq(kind ingestKind) *ingestReq {
	r := reqPool.Get().(*ingestReq)
	r.kind = kind
	return r
}

func putReq(r *ingestReq) {
	wake := r.wake
	*r = ingestReq{wake: wake}
	reqPool.Put(r)
}

// validate checks the fields a registration carries on its own; the
// dependency check needs the registry and runs inside the commit.
func (r *ingestReq) validate() error {
	if r.kind == ingestWorker {
		return validateWorker(&r.worker)
	}
	return validateTask(&r.task)
}

// ingest is the pending list and the leadership it hands around. Invariant:
// pending is empty whenever leading is false, so a registrant that becomes
// leader, or is handed leadership, is always pending[0].
type ingest struct {
	mu        sync.Mutex
	idle      sync.Cond // broadcast when leading drops to false
	pending   []*ingestReq
	leading   bool // a leader is gathering or committing
	gathering bool // the leader is waiting out its formation window
	closed    bool
	// kick (capacity 1) cuts a gathering leader's window short: the
	// pending list reached batchMax, or the platform is closing.
	kick chan struct{}

	queueCap int
	batchMax int
	wait     time.Duration

	// Leader-only: the group being committed and the drain sequence.
	group  []*ingestReq
	seq    int
	drains *obs.Ring[obs.DrainTrace]
}

func (g *ingest) init(queueCap, batchMax int, wait time.Duration) {
	if queueCap <= 0 {
		queueCap = DefaultIngestQueue
	}
	if batchMax <= 0 {
		batchMax = DefaultIngestBatch
	}
	g.idle.L = &g.mu
	g.kick = make(chan struct{}, 1)
	g.queueCap, g.batchMax, g.wait = queueCap, batchMax, wait
	g.drains = obs.NewRing[obs.DrainTrace](0)
}

// requires: g.mu
func (g *ingest) kickLocked() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// gather waits out the formation window: up to g.wait, or until the
// pending list holds a full group, or until Close. Without a window, group
// commit is bistable under closed-loop clients: a small group commits
// quickly, so few clients resubmit in time for the next one, which is then
// also small. A sub-millisecond wait (cf. Postgres commit_delay) lets each
// group form fully at high concurrency for a bounded latency cost.
func (g *ingest) gather() {
	g.mu.Lock()
	g.gathering = len(g.pending) < g.batchMax && !g.closed
	gathering := g.gathering
	g.mu.Unlock()
	if !gathering {
		return
	}
	timer := time.NewTimer(g.wait)
	select {
	case <-timer.C:
	case <-g.kick:
	}
	timer.Stop()
	g.mu.Lock()
	g.gathering = false
	g.mu.Unlock()
	// Drop a kick that raced the timer, so the next window runs in full.
	select {
	case <-g.kick:
	default:
	}
}

// AddWorker registers a worker and returns its ID. It returns once the
// registration is durable (journaled under the configured fsync policy) and
// visible in served state. The journal append happens before the publish:
// a failed append returns ID 0 with an ErrJournal-classified error and
// leaves no trace in served state, so replayed state never diverges from
// what was acknowledged.
func (p *Platform) AddWorker(w model.Worker) (model.WorkerID, error) {
	return p.RegisterWorkerTagged(w, "")
}

// AddTask registers a task and returns its ID, with the same journal-first
// atomicity as AddWorker. Its dependencies must name registered tasks (the
// same group may register them first); the platform stores the transitive
// closure.
func (p *Platform) AddTask(t model.Task) (model.TaskID, error) {
	return p.RegisterTaskTagged(t, "")
}

// RegisterWorkerTagged is AddWorker carrying the correlation ID of the HTTP
// request, reported on the drain trace that commits the registration
// (GET /v1/ingest). Empty means untagged.
func (p *Platform) RegisterWorkerTagged(w model.Worker, requestID string) (model.WorkerID, error) {
	r := getReq(ingestWorker)
	r.worker, r.reqID = w, requestID
	id, err := p.register(r)
	return model.WorkerID(id), err
}

// RegisterTaskTagged is AddTask carrying the correlation ID of the HTTP
// request; see RegisterWorkerTagged.
func (p *Platform) RegisterTaskTagged(t model.Task, requestID string) (model.TaskID, error) {
	r := getReq(ingestTask)
	r.task, r.reqID = t, requestID
	id, err := p.register(r)
	return model.TaskID(id), err
}

// IngestQueueDepth returns the pending registrations and their bound.
func (p *Platform) IngestQueueDepth() (depth, capacity int) {
	p.ing.mu.Lock()
	defer p.ing.mu.Unlock()
	return len(p.ing.pending), p.ing.queueCap
}

// IngestDrains returns up to n recent drain traces, oldest first.
func (p *Platform) IngestDrains(n int) []obs.DrainTrace {
	return p.ing.drains.Last(n)
}

// register validates r, admits it to the pending list and returns once a
// leader — possibly this goroutine — has committed it. Field validation
// fails before taking a pending slot.
func (p *Platform) register(r *ingestReq) (int, error) {
	defer putReq(r)
	if err := r.validate(); err != nil {
		return 0, err
	}
	g := &p.ing
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, ErrPlatformClosed
	}
	if len(g.pending) >= g.queueCap {
		g.mu.Unlock()
		p.cIngRej.Inc()
		return 0, ErrIngestBacklog
	}
	g.pending = append(g.pending, r)
	if g.gathering && len(g.pending) >= g.batchMax {
		g.kickLocked()
	}
	follower := g.leading
	g.leading = true
	g.mu.Unlock()
	p.cIngEnq.Inc()
	if follower {
		if <-r.wake; r.done {
			return r.id, r.err
		}
	}
	p.lead()
	return r.id, r.err
}

// lead runs one group commit as the leader: wait out the formation window,
// take up to batchMax pending registrations (the leader's own first),
// commit them, record the drain, answer the waiters and hand leadership to
// the oldest remaining one.
func (p *Platform) lead() {
	g := &p.ing
	if g.wait > 0 {
		g.gather()
	}
	g.mu.Lock()
	n := min(len(g.pending), g.batchMax)
	group := append(g.group[:0], g.pending[:n]...)
	g.pending = g.pending[:copy(g.pending, g.pending[n:])]
	g.mu.Unlock()

	tr := p.commit(group)
	g.mu.Lock()
	tr.QueueDepth = len(g.pending)
	g.mu.Unlock()
	g.seq++
	tr.Seq = g.seq
	g.drains.Add(tr)
	obs.RecordDrain(p.reg, tr)

	for _, r := range group[1:] {
		r.done = true
		r.wake <- struct{}{}
	}
	clear(group)
	g.group = group[:0]

	g.mu.Lock()
	if len(g.pending) > 0 {
		g.pending[0].wake <- struct{}{}
	} else {
		g.leading = false
		g.idle.Broadcast()
	}
	g.mu.Unlock()
}

// commit is the one registration commit, shared by the group commit and
// journal replay: under the platform mutex it assigns each entry its ID,
// closes task dependencies (a task may depend on one staged earlier in the
// same group), appends every valid entry as one journal record with at
// most one fsync, and publishes. A journal failure fails the WHOLE group
// and publishes nothing — served state and journal never diverge, in
// either direction. Each request's id and err carry its answer; the
// returned trace has everything but Seq and QueueDepth. While replaying,
// the journal is the source and is not written.
func (p *Platform) commit(reqs []*ingestReq) obs.DrainTrace {
	start := time.Now()
	p.mu.Lock()
	w0, t0 := len(p.workers), len(p.tasks)
	for _, r := range reqs {
		switch r.kind {
		case ingestWorker:
			r.worker.ID = model.WorkerID(len(p.workers))
			r.id = int(r.worker.ID)
			p.workers = append(p.workers, r.worker)
		case ingestTask:
			closed, err := p.closeDepsLocked(&r.task)
			if err != nil {
				r.err = err
				continue
			}
			r.task.Deps = closed
			r.task.ID = model.TaskID(len(p.tasks))
			r.id = int(r.task.ID)
			p.tasks = append(p.tasks, r.task)
		}
	}
	staged := len(p.workers) - w0 + len(p.tasks) - t0

	jstart := time.Now()
	var jerr error
	if staged > 0 && p.journal != nil && !p.replaying {
		entries := make([]journalEntry, 0, staged)
		for _, r := range reqs {
			switch {
			case r.err != nil:
			case r.kind == ingestWorker:
				rec := dataset.NewWorkerRecord(&r.worker)
				entries = append(entries, journalEntry{Kind: "worker", Worker: &rec})
			default:
				rec := dataset.NewTaskRecord(&r.task)
				entries = append(entries, journalEntry{Kind: "task", Task: &rec})
			}
		}
		if err := p.journal.Batch(entries); err != nil {
			jerr = journalFailure(err)
		}
	}
	journalD := time.Since(jstart)

	tr := obs.DrainTrace{Requests: len(reqs)}
	var reqIDs []string
	if jerr != nil {
		// Unstage: no view ever saw the staged entries.
		clear(p.workers[w0:])
		clear(p.tasks[t0:])
		p.workers, p.tasks = p.workers[:w0], p.tasks[:t0]
		for _, r := range reqs {
			if r.err == nil {
				r.id, r.err = 0, jerr
			}
		}
	} else {
		tr.Workers, tr.Tasks = len(p.workers)-w0, len(p.tasks)-t0
		tr.Committed = staged
		for _, r := range reqs {
			if r.err == nil && r.reqID != "" {
				reqIDs = append(reqIDs, r.reqID)
			}
		}
		p.publishViewLocked()
	}
	p.mu.Unlock()

	if jerr != nil {
		p.log.Error("ingest drain failed", "requests", len(reqs), "error", jerr.Error())
	}
	tr.Failed = tr.Requests - tr.Committed
	tr.CommitMS = float64(time.Since(start)) / float64(time.Millisecond)
	tr.JournalMS = float64(journalD) / float64(time.Millisecond)
	tr.RequestIDs = obs.CapRequestIDs(reqIDs)
	tr.RequestIDCount = len(reqIDs)
	return tr
}

// Close commits every registration already admitted to the pending list
// and makes every later registration fail with ErrPlatformClosed. It cuts
// a formation window short. Idempotent. The journal is not closed — its
// owner (whoever opened it) is.
func (p *Platform) Close() error {
	g := &p.ing
	g.mu.Lock()
	g.closed = true
	if g.gathering {
		g.kickLocked()
	}
	for g.leading {
		g.idle.Wait()
	}
	g.mu.Unlock()
	return nil
}
