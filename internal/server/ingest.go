package server

import (
	"errors"
	"sync"
	"time"

	"dasc/internal/model"
	"dasc/internal/obs"
)

// This file is the group-commit ingest pipeline. Registrations arriving at
// rate (POST /v1/workers, /v1/tasks) no longer take the platform mutex and
// pay their own journal fsync one at a time; they stage through a bounded
// admission queue and a single committer goroutine drains it:
//
//	stage → drain (≤ IngestBatch) → assign IDs → journal one v2 multi-entry
//	record, ONE fsync → publish to platform state → answer every waiter
//
// Under -fsync=always this turns one disk flush per request into one per
// drain, and the drain size grows automatically with the arrival rate (while
// a commit is in flight the queue refills; the next drain takes everything).
// Backpressure is explicit: a full queue fails fast with ErrIngestBacklog
// and the HTTP layer answers 429 + Retry-After.
//
// Ordering: the committer journals and publishes under the platform mutex,
// the same mutex ticks and snapshots take, so journal order always equals
// publish order and a snapshot rotation can never cut a drain in half.

// DefaultIngestBatch caps how many staged registrations one committer drain
// commits as a single journal record when Config.IngestBatch is zero.
const DefaultIngestBatch = 256

// ErrIngestBacklog reports a full admission queue: the client should retry
// after a moment (HTTP 429 + Retry-After). Submissions are not blocked on a
// slow disk — the queue bound converts an overload into fast feedback.
var ErrIngestBacklog = errors.New("server: ingest queue full")

// ErrPlatformClosed reports a registration attempted after Close.
var ErrPlatformClosed = errors.New("server: platform closed")

type ingestKind uint8

const (
	ingestWorker ingestKind = iota
	ingestTask
)

// ingestReq is one staged registration; done (buffered, capacity 1) carries
// the committer's answer back to the waiting submitter. reqID is the HTTP
// correlation ID (middleware.go), reported on the drain trace that commits
// the entry; empty for untagged submissions.
type ingestReq struct {
	kind   ingestKind
	worker model.Worker
	task   model.Task
	reqID  string
	done   chan ingestResult
}

type ingestResult struct {
	id  int
	err error
}

// reqPool recycles ingestReqs (and their answer channels) between
// registrations. The done channel is capacity 1 and receives exactly one
// result per use, so a request that has been answered is empty and safe to
// reuse. putReq zeroes the payload so pooled requests do not retain skill or
// dependency slices.
var reqPool = sync.Pool{New: func() any {
	return &ingestReq{done: make(chan ingestResult, 1)}
}}

func getReq(kind ingestKind) *ingestReq {
	r := reqPool.Get().(*ingestReq)
	r.kind = kind
	return r
}

func putReq(r *ingestReq) {
	r.worker = model.Worker{}
	r.task = model.Task{}
	r.reqID = ""
	reqPool.Put(r)
}

// ingest is the admission queue plus committer lifecycle. The RWMutex
// fences queue sends against shutdown: submitters hold the read side across
// the closed-check-then-send, shutdown takes the write side before closing
// stop, so no request can land in the queue after the committer's final
// drain.
type ingest struct {
	mu     sync.RWMutex
	closed bool

	queue    chan *ingestReq
	batchMax int
	wait     time.Duration
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once

	seq    int // committer-goroutine only
	drains *obs.DrainRing
}

func newIngest(queueCap, batchMax int, wait time.Duration) *ingest {
	if batchMax <= 0 {
		batchMax = DefaultIngestBatch
	}
	return &ingest{
		queue:    make(chan *ingestReq, queueCap),
		batchMax: batchMax,
		wait:     wait,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		drains:   obs.NewDrainRing(0),
	}
}

// submit stages a request without blocking: a full queue is ErrIngestBacklog,
// a closed pipeline ErrPlatformClosed.
func (g *ingest) submit(r *ingestReq) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return ErrPlatformClosed
	}
	select {
	case g.queue <- r:
		return nil
	default:
		return ErrIngestBacklog
	}
}

// shutdown stops the committer after a final drain of everything admitted.
func (g *ingest) shutdown() {
	g.once.Do(func() {
		g.mu.Lock()
		g.closed = true
		g.mu.Unlock()
		close(g.stop)
		<-g.done
	})
}

// fill drains the queue non-blocking into batch, up to batchMax entries.
func (g *ingest) fill(batch []*ingestReq) []*ingestReq {
	for len(batch) < g.batchMax {
		select {
		case r := <-g.queue:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// gather extends a drain for up to the configured formation window, blocking
// for stragglers instead of only sweeping what already queued. Without a
// window, group commit is bistable under closed-loop clients: a small drain
// commits quickly, so few clients resubmit in time for the next drain, which
// is then also small — and the pipeline gets stuck paying near-per-request
// fsyncs. A sub-millisecond wait (cf. Postgres commit_delay) lets each drain
// form fully at high concurrency for a bounded latency cost. Shutdown cuts
// the window short; the final sweep in committer picks up anything left.
func (g *ingest) gather(batch []*ingestReq) []*ingestReq {
	timer := time.NewTimer(g.wait)
	defer timer.Stop()
	for len(batch) < g.batchMax {
		select {
		case r := <-g.queue:
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-g.stop:
			return batch
		}
	}
	return batch
}

// RegisterWorker registers a worker through the group-commit pipeline when
// it is enabled, falling back to the synchronous AddWorker path otherwise.
// The call returns once the registration is durable (journaled under the
// configured fsync policy) and visible in served state, exactly like
// AddWorker — only the commit is shared with every other registration in
// the same drain.
func (p *Platform) RegisterWorker(w model.Worker) (model.WorkerID, error) {
	return p.RegisterWorkerTagged(w, "")
}

// RegisterWorkerTagged is RegisterWorker carrying the correlation ID of the
// HTTP request, reported on the drain trace that commits the registration
// (GET /v1/ingest). Empty means untagged.
func (p *Platform) RegisterWorkerTagged(w model.Worker, requestID string) (model.WorkerID, error) {
	if p.ing == nil {
		return p.AddWorker(w)
	}
	// Field validation fails fast before taking a queue slot; the committer
	// re-checks nothing but dependencies (which need platform state).
	if err := validateWorker(&w); err != nil {
		return 0, err
	}
	req := getReq(ingestWorker)
	req.worker = w
	req.reqID = requestID
	if err := p.enqueue(req); err != nil {
		putReq(req)
		return 0, err
	}
	res := <-req.done
	putReq(req)
	return model.WorkerID(res.id), res.err
}

// RegisterTask is RegisterWorker for tasks: staged field validation up
// front, dependency validation and closure inside the commit (it needs the
// registry), group-committed with the rest of the drain.
func (p *Platform) RegisterTask(t model.Task) (model.TaskID, error) {
	return p.RegisterTaskTagged(t, "")
}

// RegisterTaskTagged is RegisterTask carrying the correlation ID of the HTTP
// request; see RegisterWorkerTagged.
func (p *Platform) RegisterTaskTagged(t model.Task, requestID string) (model.TaskID, error) {
	if p.ing == nil {
		return p.AddTask(t)
	}
	if err := validateTask(&t); err != nil {
		return 0, err
	}
	req := getReq(ingestTask)
	req.task = t
	req.reqID = requestID
	if err := p.enqueue(req); err != nil {
		putReq(req)
		return 0, err
	}
	res := <-req.done
	putReq(req)
	return model.TaskID(res.id), res.err
}

// IngestQueueDepth returns the admission-queue backlog and capacity; (0, 0)
// when the pipeline is disabled.
func (p *Platform) IngestQueueDepth() (depth, capacity int) {
	if p.ing == nil {
		return 0, 0
	}
	return len(p.ing.queue), cap(p.ing.queue)
}

// IngestDrains returns up to n recent drain traces, oldest first; empty when
// the pipeline is disabled.
func (p *Platform) IngestDrains(n int) []obs.DrainTrace {
	if p.ing == nil {
		return []obs.DrainTrace{}
	}
	return p.ing.drains.Last(n)
}

func (p *Platform) enqueue(r *ingestReq) error {
	err := p.ing.submit(r)
	switch err {
	case nil:
		p.cIngEnq.Inc()
	case ErrIngestBacklog:
		p.cIngRej.Inc()
	}
	return err
}

// committer is the pipeline's single drain loop: block for the first staged
// request, soak up whatever else arrived (bounded by batchMax), commit the
// drain, repeat. On shutdown it commits everything already admitted before
// exiting, so no accepted request is ever left unanswered.
func (p *Platform) committer() {
	g := p.ing
	defer close(g.done)
	var batch []*ingestReq
	for {
		select {
		case <-g.stop:
			for {
				batch = g.fill(batch[:0])
				if len(batch) == 0 {
					return
				}
				p.commitBatch(batch)
			}
		case r := <-g.queue:
			batch = append(batch[:0], r)
			if g.wait > 0 {
				batch = g.gather(batch)
			} else {
				batch = g.fill(batch)
			}
			p.commitBatch(batch)
		}
	}
}

// commitBatch commits one drain: stage IDs under the platform mutex, append
// every valid entry as one journal record with a single fsync, publish, then
// answer the waiters. A journal failure fails the WHOLE drain and publishes
// nothing — served state and journal never diverge, in either direction.
func (p *Platform) commitBatch(reqs []*ingestReq) {
	start := time.Now()
	results := make([]ingestResult, len(reqs))
	entries := make([]journalEntry, 0, len(reqs))
	staged := make([]int, 0, len(reqs)) // indices into reqs, in commit order

	p.mu.Lock()
	var stagedW []model.Worker
	var stagedT []model.Task
	for i, r := range reqs {
		switch r.kind {
		case ingestWorker:
			w := r.worker
			w.ID = model.WorkerID(len(p.workers) + len(stagedW))
			stagedW = append(stagedW, w)
			entries = append(entries, workerEntry(w))
			staged = append(staged, i)
			results[i] = ingestResult{id: int(w.ID)}
		case ingestTask:
			t := r.task
			closed, err := p.closeDepsLocked(&t, stagedT)
			if err != nil {
				results[i] = ingestResult{err: err}
				continue
			}
			t.Deps = closed
			t.ID = model.TaskID(len(p.tasks) + len(stagedT))
			stagedT = append(stagedT, t)
			entries = append(entries, taskEntry(t))
			staged = append(staged, i)
			results[i] = ingestResult{id: int(t.ID)}
		}
	}

	jstart := time.Now()
	var jerr error
	if len(entries) > 0 && p.journal != nil {
		if err := p.journal.Batch(entries); err != nil {
			jerr = journalFailure(err)
		}
	}
	journalD := time.Since(jstart)

	committed := 0
	var reqIDs []string
	if jerr != nil {
		for _, i := range staged {
			results[i] = ingestResult{err: jerr}
		}
		stagedW, stagedT = nil, nil
	} else {
		p.workers = append(p.workers, stagedW...)
		p.tasks = append(p.tasks, stagedT...)
		committed = len(staged)
		// Collect correlation IDs in commit order NOW: once a waiter is
		// answered below it recycles its request (putReq zeroes reqID).
		for _, i := range staged {
			if id := reqs[i].reqID; id != "" {
				reqIDs = append(reqIDs, id)
			}
		}
		p.publishViewLocked()
	}
	depth := len(p.ing.queue)
	p.mu.Unlock()

	if jerr != nil {
		p.log.Error("ingest drain failed",
			"requests", len(reqs), "queue_depth", depth, "error", jerr.Error())
	}

	for i := range reqs {
		reqs[i].done <- results[i]
	}

	p.ing.seq++
	tr := obs.DrainTrace{
		Seq:            p.ing.seq,
		Requests:       len(reqs),
		Committed:      committed,
		Workers:        len(stagedW),
		Tasks:          len(stagedT),
		Failed:         len(reqs) - committed,
		QueueDepth:     depth,
		CommitMS:       float64(time.Since(start)) / float64(time.Millisecond),
		JournalMS:      float64(journalD) / float64(time.Millisecond),
		RequestIDs:     obs.CapRequestIDs(reqIDs),
		RequestIDCount: len(reqIDs),
	}
	p.ing.drains.Add(tr)
	obs.RecordDrain(p.reg, tr)
}
