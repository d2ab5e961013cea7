package sim

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"dasc/internal/obs"
)

// csvColumns defines the per-batch CSV trace once: every column pairs its
// header name with its row extractor, so WriteCSVHeader and CSVTrace can
// never disagree on column count or order (TestCSVColumnsAgree pins it).
var csvColumns = []struct {
	name string
	val  func(BatchResult) string
}{
	{"batch", func(br BatchResult) string { return strconv.Itoa(br.Index) }},
	{"time", func(br BatchResult) string { return fmt.Sprintf("%.4f", br.Time) }},
	{"active_workers", func(br BatchResult) string { return strconv.Itoa(br.Workers) }},
	{"pending_tasks", func(br BatchResult) string { return strconv.Itoa(br.Tasks) }},
	{"assigned", func(br BatchResult) string { return strconv.Itoa(br.Assignment.Size()) }},
	{"deferred", func(br BatchResult) string { return strconv.Itoa(br.Trace.Deferred) }},
	{"rogue", func(br BatchResult) string { return strconv.Itoa(br.Trace.Rogue) }},
	{"index_build_ms", func(br BatchResult) string { return fmt.Sprintf("%.3f", br.Trace.IndexBuildMS) }},
	{"alloc_ms", func(br BatchResult) string { return fmt.Sprintf("%.3f", br.Trace.AllocMS) }},
	{"dispatch_ms", func(br BatchResult) string { return fmt.Sprintf("%.3f", br.Trace.DispatchMS) }},
	{"memo_hits", func(br BatchResult) string { return strconv.FormatInt(br.Trace.MemoHits, 10) }},
	{"memo_misses", func(br BatchResult) string { return strconv.FormatInt(br.Trace.MemoMisses, 10) }},
	{"cache_hit_ratio", func(br BatchResult) string { return fmt.Sprintf("%.4f", br.Trace.CacheHitRatio()) }},
	{"candidates_examined", func(br BatchResult) string { return strconv.FormatInt(br.Trace.CandidatesExamined, 10) }},
	{"candidates_admitted", func(br BatchResult) string { return strconv.FormatInt(br.Trace.CandidatesAdmitted, 10) }},
	{"game_rounds", func(br BatchResult) string { return strconv.Itoa(br.Trace.GameRounds) }},
	{"game_active", func(br BatchResult) string { return strconv.Itoa(br.Trace.GameActive) }},
	{"game_evaluated", func(br BatchResult) string { return strconv.FormatInt(br.Trace.GameEvaluated, 10) }},
	{"game_skipped", func(br BatchResult) string { return strconv.FormatInt(br.Trace.GameSkipped, 10) }},
	{"game_moved", func(br BatchResult) string { return strconv.FormatInt(br.Trace.GameMoved, 10) }},
}

// CSVTrace returns an OnBatch callback that streams one CSV row per batch to
// w — the long-form log an operator feeds into a spreadsheet or notebook.
// Call WriteCSVHeader first. Write errors are reported through errSink
// (which may be nil to ignore them), since the batch loop cannot abort on a
// logging failure.
func CSVTrace(w io.Writer, errSink func(error)) func(BatchResult) {
	return func(br BatchResult) {
		fields := make([]string, len(csvColumns))
		for i, c := range csvColumns {
			fields[i] = c.val(br)
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil && errSink != nil {
			errSink(err)
		}
	}
}

// WriteCSVHeader writes the header row matching CSVTrace's columns.
func WriteCSVHeader(w io.Writer) error {
	names := make([]string, len(csvColumns))
	for i, c := range csvColumns {
		names[i] = c.name
	}
	_, err := fmt.Fprintln(w, strings.Join(names, ","))
	return err
}

// TraceSink returns an OnBatch callback that appends the trace of every
// batch OnBatch observes to ring. Unlike the server's /v1/trace buffer,
// which records every tick, the ring holds only batches with at least one
// active worker and one pending task (see Config.OnBatch). Compose it with
// other sinks by calling both from one closure.
func TraceSink(ring *obs.Ring[obs.BatchTrace]) func(BatchResult) {
	return func(br BatchResult) { ring.Add(br.Trace) }
}

// MetricsSink returns an OnBatch callback that folds every batch's trace
// into reg under the standard dasc_* names (obs.RecordBatch), giving a
// simulation run the same aggregate metrics surface as the server.
func MetricsSink(reg *obs.Registry) func(BatchResult) {
	return func(br BatchResult) { obs.RecordBatch(reg, br.Trace) }
}

// TeeBatch fans one OnBatch event out to multiple sinks, skipping nil
// entries. With no live sinks it returns nil, so assigning the result to
// Config.OnBatch leaves per-batch instrumentation off rather than paying
// for traces nobody reads.
func TeeBatch(sinks ...func(BatchResult)) func(BatchResult) {
	var live []func(BatchResult)
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return func(br BatchResult) {
		for _, s := range live {
			s(br)
		}
	}
}
