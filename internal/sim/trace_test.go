package sim

import (
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// TestCSVColumnsAgree pins the header and every data row to the same column
// count — the two used to be maintained by hand in two functions and could
// silently drift.
func TestCSVColumnsAgree(t *testing.T) {
	var hdr strings.Builder
	if err := WriteCSVHeader(&hdr); err != nil {
		t.Fatal(err)
	}
	headerCols := strings.Split(strings.TrimSpace(hdr.String()), ",")
	if len(headerCols) != len(csvColumns) {
		t.Fatalf("header has %d columns, table has %d", len(headerCols), len(csvColumns))
	}
	for i, c := range csvColumns {
		if headerCols[i] != c.name {
			t.Errorf("header[%d] = %q, table says %q", i, headerCols[i], c.name)
		}
	}

	var row strings.Builder
	CSVTrace(&row, nil)(BatchResult{Assignment: model.NewAssignment()})
	rowCols := strings.Split(strings.TrimSpace(row.String()), ",")
	if len(rowCols) != len(headerCols) {
		t.Fatalf("row has %d columns, header has %d", len(rowCols), len(headerCols))
	}

	// A populated trace too, in case a column formats conditionally.
	row.Reset()
	CSVTrace(&row, nil)(BatchResult{
		Index: 3, Time: 15, Workers: 4, Tasks: 7,
		Assignment: model.NewAssignment(),
		Trace: obs.BatchTrace{
			MemoHits: 5, MemoMisses: 3,
			CandidatesExamined: 11, CandidatesAdmitted: 6,
			IndexBuildMS: 0.5, AllocMS: 1.25, DispatchMS: 0.1,
			Deferred: 1, Rogue: 2,
		},
	})
	rowCols = strings.Split(strings.TrimSpace(row.String()), ",")
	if len(rowCols) != len(headerCols) {
		t.Fatalf("populated row has %d columns, header has %d", len(rowCols), len(headerCols))
	}
}

// TestRunFillsBatchTrace: a run with an OnBatch sink produces traces whose
// engine counters and population fields are live.
func TestRunFillsBatchTrace(t *testing.T) {
	in := model.Example1()
	ring := obs.NewRing[obs.BatchTrace](16)
	reg := obs.NewRegistry()
	var results []BatchResult
	p, err := New(in, Config{
		Allocator: core.NewGreedy(),
		OnBatch: TeeBatch(
			TraceSink(ring),
			MetricsSink(reg),
			func(br BatchResult) { results = append(results, br) },
			nil, // nil sinks are skipped
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no batches observed")
	}
	first := results[0].Trace
	if first.Workers != results[0].Workers || first.Tasks != results[0].Tasks {
		t.Errorf("trace population %d/%d != result %d/%d",
			first.Workers, first.Tasks, results[0].Workers, results[0].Tasks)
	}
	if first.Assigned != results[0].Assignment.Size() {
		t.Errorf("trace assigned = %d, assignment = %d", first.Assigned, results[0].Assignment.Size())
	}
	if first.CandidatesAdmitted == 0 {
		t.Error("first batch admitted no candidates (engine counters not wired)")
	}
	if ring.Len() != len(results) {
		t.Errorf("ring holds %d traces, observed %d batches", ring.Len(), len(results))
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MBatchesTotal] != int64(len(results)) {
		t.Errorf("%s = %d, want %d", obs.MBatchesTotal, snap.Counters[obs.MBatchesTotal], len(results))
	}
	if snap.Counters[obs.MAssignedTotal] != int64(res.AssignedPairs) {
		t.Errorf("%s = %d, want %d", obs.MAssignedTotal, snap.Counters[obs.MAssignedTotal], res.AssignedPairs)
	}
	if snap.Histograms[obs.TPhaseAlloc].Count != int64(len(results)) {
		t.Errorf("alloc histogram count = %d, want %d", snap.Histograms[obs.TPhaseAlloc].Count, len(results))
	}
}

// TestRunTraceMatchesCacheRegime: Greedy's cost rows are served from the
// candidate engine's travel-time memo, so memo hits accumulate over a run,
// while the counters of the retired cross-batch cache stay 0.
func TestRunTraceMatchesCacheRegime(t *testing.T) {
	var traces []obs.BatchTrace
	p, err := New(model.Example1(), Config{
		Allocator: core.NewGreedy(),
		OnBatch:   func(br BatchResult) { traces = append(traces, br.Trace) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	var hits int64
	for _, tr := range traces {
		hits += tr.MemoHits
		if tr.WorkersRevalidated != 0 || tr.WorkersRebuilt != 0 {
			t.Errorf("batch %d: retired cache counters %d/%d, want 0", tr.Batch, tr.WorkersRevalidated, tr.WorkersRebuilt)
		}
	}
	if hits == 0 {
		t.Error("no travel-time lookup was served from the memo")
	}
}
