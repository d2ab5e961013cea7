package obs

// The dasc_* metric name inventory. Both platforms report through
// RecordBatch, so the same names mean the same things on the simulator and
// the server (and in DESIGN.md §3.6, which documents them).
const (
	// Batch loop.
	MBatchesTotal      = "dasc_batches_total"
	MBatchWorkersGauge = "dasc_batch_active_workers"
	MBatchTasksGauge   = "dasc_batch_pending_tasks"

	// Allocation results.
	MAssignedTotal = "dasc_assigned_pairs_total"
	MDeferredTotal = "dasc_deferred_pairs_total"
	MRogueTotal    = "dasc_rogue_pairs_total"

	// Travel-time memo.
	MMemoHitsTotal   = "dasc_memo_hits_total"
	MMemoMissesTotal = "dasc_memo_misses_total"

	// Journal durability (server): every append is flushed; fsyncs follow
	// the configured server.FsyncMode.
	MJournalAppendsTotal = "dasc_journal_appends_total"
	MJournalBytesTotal   = "dasc_journal_bytes_total"
	MJournalFsyncsTotal  = "dasc_journal_fsyncs_total"

	// Ingest (server): the group commit's pending list and its drains.
	// Enqueued counts admitted registrations, rejected counts backpressured
	// (429) ones, committed/failed split drain results.
	MIngestEnqueuedTotal  = "dasc_ingest_enqueued_total"
	MIngestRejectedTotal  = "dasc_ingest_rejected_total"
	MIngestDrainsTotal    = "dasc_ingest_drains_total"
	MIngestCommittedTotal = "dasc_ingest_committed_total"
	MIngestFailedTotal    = "dasc_ingest_failed_total"
	MIngestQueueDepth     = "dasc_ingest_queue_depth"
	TIngestBatchEntries   = "dasc_ingest_batch_entries"
	TIngestCommitSeconds  = "dasc_ingest_commit_seconds"
	TIngestJournalSeconds = "dasc_ingest_journal_seconds"

	// Snapshots (server): atomic state snapshots that rotate the journal.
	MSnapshotsTotal        = "dasc_snapshots_total"
	MSnapshotFailuresTotal = "dasc_snapshot_failures_total"
	MSnapshotBytesGauge    = "dasc_snapshot_bytes"
	TSnapshotSeconds       = "dasc_snapshot_seconds"

	// Crash recovery (server): what startup replay applied and whether a
	// torn final journal line was truncated.
	MRecoveryEntriesTotal   = "dasc_recovery_entries_replayed_total"
	MRecoveryTicksTotal     = "dasc_recovery_ticks_replayed_total"
	MRecoveryTornLinesTotal = "dasc_recovery_torn_lines_total"
	MRecoveryTornBytesTotal = "dasc_recovery_torn_bytes_truncated_total"

	// Pruning effectiveness.
	MCandExaminedTotal = "dasc_candidates_examined_total"
	MCandAdmittedTotal = "dasc_candidates_admitted_total"

	// DASC_Game best-response engine: rounds run and the worklist sweep's
	// evaluated/skipped/moved split (skipped stays 0 under the naive sweep,
	// so skipped/(evaluated+skipped) is the engine's observed skip rate).
	MGameRoundsTotal    = "dasc_game_rounds_total"
	MGameEvaluatedTotal = "dasc_game_evaluated_total"
	MGameSkippedTotal   = "dasc_game_skipped_total"
	MGameMovedTotal     = "dasc_game_moved_total"

	// Phase latency histograms (seconds, log-scale buckets, histogram.go).
	TPhaseIndex    = "dasc_phase_index_seconds"
	TPhaseAlloc    = "dasc_phase_alloc_seconds"
	TPhaseDispatch = "dasc_phase_dispatch_seconds"

	// HTTP middleware (server): every API route is wrapped with per-route
	// telemetry (middleware.go). Requests are counted by status class
	// (labels: route, code="2xx".."5xx"/"other"), request/response bodies by
	// bytes (label: route), and acknowledgement latency lands in a log-scale
	// histogram (label: route). Registry names carry the label block via
	// obs.Labeled.
	MHTTPRequestsTotal      = "dasc_http_requests_total"
	MHTTPRequestBytesTotal  = "dasc_http_request_bytes_total"
	MHTTPResponseBytesTotal = "dasc_http_response_bytes_total"
	THTTPRequestSeconds     = "dasc_http_request_seconds"

	// Runtime collector (runtime.go): process-level gauges sampled at scrape
	// time by a registry scrape hook — goroutines, heap, GC and uptime.
	// dasc_runtime_gc_cycles_total is a true counter (delta-fed from
	// runtime.MemStats.NumGC); gc_pause_seconds is cumulative but exposed as
	// a gauge because Counter is integral.
	MRuntimeGoroutines     = "dasc_runtime_goroutines"
	MRuntimeHeapAllocBytes = "dasc_runtime_heap_alloc_bytes"
	MRuntimeHeapSysBytes   = "dasc_runtime_heap_sys_bytes"
	MRuntimeGCCyclesTotal  = "dasc_runtime_gc_cycles_total"
	MRuntimeGCPauseSeconds = "dasc_runtime_gc_pause_seconds"
	MRuntimeUptimeSeconds  = "dasc_runtime_uptime_seconds"
)

// RecordBatch folds one batch trace into the registry under the standard
// dasc_* names. No-op on a nil registry.
func RecordBatch(r *Registry, t BatchTrace) {
	if r == nil {
		return
	}
	r.Counter(MBatchesTotal).Inc()
	r.Gauge(MBatchWorkersGauge).Set(float64(t.Workers))
	r.Gauge(MBatchTasksGauge).Set(float64(t.Tasks))

	r.Counter(MAssignedTotal).Add(int64(t.Assigned))
	r.Counter(MDeferredTotal).Add(int64(t.Deferred))
	r.Counter(MRogueTotal).Add(int64(t.Rogue))

	r.Counter(MMemoHitsTotal).Add(t.MemoHits)
	r.Counter(MMemoMissesTotal).Add(t.MemoMisses)

	r.Counter(MCandExaminedTotal).Add(t.CandidatesExamined)
	r.Counter(MCandAdmittedTotal).Add(t.CandidatesAdmitted)

	r.Counter(MGameRoundsTotal).Add(int64(t.GameRounds))
	r.Counter(MGameEvaluatedTotal).Add(t.GameEvaluated)
	r.Counter(MGameSkippedTotal).Add(t.GameSkipped)
	r.Counter(MGameMovedTotal).Add(t.GameMoved)

	r.Histogram(TPhaseIndex).Observe(t.IndexBuildMS / 1e3)
	r.Histogram(TPhaseAlloc).Observe(t.AllocMS / 1e3)
	r.Histogram(TPhaseDispatch).Observe(t.DispatchMS / 1e3)
}
