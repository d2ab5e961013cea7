package obs

import "sync"

// DrainTrace is the per-drain instrumentation record of the server's
// group-commit ingest pipeline: one committer drain of the admission queue —
// how many staged registrations it pulled, how many it committed as one
// journal record (a single fsync under -fsync=always), and what the commit
// cost. The server keeps the recent drains in a DrainRing (served by
// GET /v1/ingest) and folds each one into a Registry (RecordDrain) for the
// aggregate dasc_ingest_* view.
type DrainTrace struct {
	// Seq numbers drains since process start.
	Seq int `json:"seq"`
	// Requests is how many staged registrations the drain pulled off the
	// admission queue; Committed is how many of them were journaled and
	// published (Requests - Committed failed validation, or the whole drain
	// failed its journal append).
	Requests  int `json:"requests"`
	Committed int `json:"committed"`
	// Workers and Tasks split the committed entries by kind.
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	// Failed counts requests answered with an error (validation or journal).
	Failed int `json:"failed"`
	// QueueDepth is the admission-queue backlog remaining after the drain.
	QueueDepth int `json:"queue_depth"`
	// CommitMS is the full drain commit wall-clock (stage + journal +
	// publish); JournalMS is the journal append + fsync alone.
	CommitMS  float64 `json:"commit_ms"`
	JournalMS float64 `json:"journal_ms"`
	// RequestIDs are the X-Request-IDs of the registrations this drain
	// committed (requests without an ID are skipped), in commit order and
	// capped at DrainTraceIDCap entries — when truncated, the slice keeps the
	// first DrainTraceIDCap-1 plus the last, and RequestIDCount carries the
	// true total. This is the request→drain correlation hop: a client that
	// tagged its registration can find the exact group commit that made it
	// durable via GET /v1/ingest.
	RequestIDs     []string `json:"request_ids,omitempty"`
	RequestIDCount int      `json:"request_id_count,omitempty"`
}

// DrainTraceIDCap bounds how many request IDs one DrainTrace retains; drains
// can batch thousands of registrations and the trace ring would otherwise
// pin every ID string of recent history.
const DrainTraceIDCap = 64

// CapRequestIDs truncates ids to DrainTraceIDCap, keeping the first
// DrainTraceIDCap-1 and the last so both ends of the drain stay visible.
func CapRequestIDs(ids []string) []string {
	if len(ids) <= DrainTraceIDCap {
		return ids
	}
	capped := make([]string, DrainTraceIDCap)
	copy(capped, ids[:DrainTraceIDCap-1])
	capped[DrainTraceIDCap-1] = ids[len(ids)-1]
	return capped
}

// ingestBatchBounds are the drain-size buckets (a drain batches up to a few
// thousand entries; larger ones land in the +Inf overflow). Commit/journal
// latencies use the default latency bounds.
var ingestBatchBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// RecordDrain folds one ingest drain trace into the registry under the
// standard dasc_ingest_* names. No-op on a nil registry.
func RecordDrain(r *Registry, t DrainTrace) {
	if r == nil {
		return
	}
	r.Counter(MIngestDrainsTotal).Inc()
	r.Counter(MIngestCommittedTotal).Add(int64(t.Committed))
	r.Counter(MIngestFailedTotal).Add(int64(t.Failed))
	r.Gauge(MIngestQueueDepth).Set(float64(t.QueueDepth))
	r.HistogramBounds(TIngestBatchEntries, ingestBatchBounds).Observe(float64(t.Requests))
	r.Histogram(TIngestCommitSeconds).Observe(t.CommitMS / 1e3)
	r.Histogram(TIngestJournalSeconds).Observe(t.JournalMS / 1e3)
}

// DrainRing is a fixed-capacity ring buffer of the most recent ingest
// DrainTraces, safe for concurrent use. Same contract as TraceRing: nil-safe,
// Last returns oldest-first and never nil.
type DrainRing struct {
	mu   sync.Mutex
	buf  []DrainTrace
	next int
	n    int
}

// NewDrainRing creates a ring holding the last capacity drains; a
// non-positive capacity means DefaultTraceDepth.
func NewDrainRing(capacity int) *DrainRing {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	return &DrainRing{buf: make([]DrainTrace, capacity)}
}

// Add appends a drain trace, evicting the oldest when full. No-op on a nil
// ring.
func (r *DrainRing) Add(t DrainTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns how many drains are buffered; zero on a nil ring.
func (r *DrainRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Last returns up to n of the most recent drains, oldest first; always
// non-nil so it JSON-encodes as [] rather than null.
func (r *DrainRing) Last(n int) []DrainTrace {
	if r == nil || n <= 0 {
		return []DrainTrace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.n {
		n = r.n
	}
	out := make([]DrainTrace, 0, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
