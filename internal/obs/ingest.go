package obs

// DrainTrace is the per-drain instrumentation record of the server's
// group commit: one leader's drain of the pending registrations — how many
// it took, how many it committed as one journal record (a single fsync
// under -fsync=always), and what the commit cost. The server keeps the
// recent drains in a Ring (served by GET /v1/ingest) and folds each one
// into a Registry (RecordDrain) for the aggregate dasc_ingest_* view.
type DrainTrace struct {
	// Seq numbers drains since process start.
	Seq int `json:"seq"`
	// Requests is how many pending registrations the drain took; Committed
	// is how many of them were journaled and published (Requests -
	// Committed failed validation, or the whole drain failed its journal
	// append).
	Requests  int `json:"requests"`
	Committed int `json:"committed"`
	// Workers and Tasks split the committed entries by kind.
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	// Failed counts requests answered with an error (validation or journal).
	Failed int `json:"failed"`
	// QueueDepth is the pending registrations left after the drain.
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
