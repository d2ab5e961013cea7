package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramNilSafety(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(4)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Stats().Count != 0 {
		t.Error("nil histogram has stats")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry returned live metrics")
	}
	r.Reset()
	RecordBatch(r, BatchTrace{Assigned: 1})
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot = %+v", s)
	}
}

func TestRegistryGetOrCreateAndConcurrency(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram not idempotent")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Stats().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestRegistrySnapshotResetAndExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("dasc_batches_total").Add(7)
	r.Gauge("dasc_batch_active_workers").Set(3)
	r.Histogram("dasc_phase_alloc_seconds").Observe(0.25)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE dasc_batches_total counter",
		"dasc_batches_total 7",
		"# TYPE dasc_batch_active_workers gauge",
		"dasc_batch_active_workers 3",
		"# TYPE dasc_phase_alloc_seconds histogram",
		"dasc_phase_alloc_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text exposition missing %q:\n%s", want, text)
		}
	}

	sb.Reset()
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if snap.Counters["dasc_batches_total"] != 7 {
		t.Errorf("JSON counters = %v", snap.Counters)
	}
	if snap.Histograms["dasc_phase_alloc_seconds"].Count != 1 {
		t.Errorf("JSON histograms = %v", snap.Histograms)
	}

	r.Reset()
	s := r.Snapshot()
	if s.Counters["dasc_batches_total"] != 0 {
		t.Error("Reset kept counter value")
	}
	if _, ok := s.Counters["dasc_batches_total"]; !ok {
		t.Error("Reset dropped the registered name")
	}
	if s.Histograms["dasc_phase_alloc_seconds"].Count != 0 {
		t.Error("Reset kept histogram observations")
	}
}

// TestRecordDrainBatchEntriesBuckets checks that drain sizes land in the
// count buckets of dasc_ingest_batch_entries: a one-entry drain in le="1",
// a 4096-entry drain in le="4096", and neither in the overflow.
func TestRecordDrainBatchEntriesBuckets(t *testing.T) {
	r := NewRegistry()
	RecordDrain(r, DrainTrace{Requests: 1})
	RecordDrain(r, DrainTrace{Requests: 4096})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE dasc_ingest_batch_entries histogram",
		`dasc_ingest_batch_entries_bucket{le="1"} 1`,
		`dasc_ingest_batch_entries_bucket{le="2"} 1`,
		`dasc_ingest_batch_entries_bucket{le="2048"} 1`,
		`dasc_ingest_batch_entries_bucket{le="4096"} 2`,
		`dasc_ingest_batch_entries_bucket{le="+Inf"} 2`,
		"dasc_ingest_batch_entries_sum 4097",
		"dasc_ingest_batch_entries_count 2",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if _, err := ValidateExposition(text); err != nil {
		t.Errorf("exposition rejected: %v", err)
	}
}

func TestBatchRecAccumulatesIntoTrace(t *testing.T) {
	r := NewBatchRec(4, 20)
	r.SetPopulation(10, 30)
	r.AddExamined(100)
	r.AddAdmitted(40)
	r.AddMemoHits(25)
	r.AddMemoMisses(5)
	r.SetOutcome(12, 3, 1)
	r.ObservePhases(2*time.Millisecond, 4*time.Millisecond, time.Millisecond)

	tr := r.Finish()
	want := BatchTrace{
		Batch: 4, Time: 20, Workers: 10, Tasks: 30,
		IndexBuildMS: 2, AllocMS: 4, DispatchMS: 1,
		MemoHits: 25, MemoMisses: 5,
		CandidatesExamined: 100, CandidatesAdmitted: 40,
		Assigned: 12, Deferred: 3, Rogue: 1,
	}
	if tr != want {
		t.Errorf("trace = %+v\nwant    %+v", tr, want)
	}
	if got := tr.CacheHitRatio(); got != 25.0/30.0 {
		t.Errorf("CacheHitRatio = %v", got)
	}
	if (BatchTrace{}).CacheHitRatio() != 0 {
		t.Error("empty trace hit ratio not 0")
	}

	// Laps are consecutive: together they cover the span they were taken
	// over.
	start := time.Now()
	r.StartPhases()
	l1, l2 := r.Lap(), r.Lap()
	if span := time.Since(start); l1 < 0 || l2 < 0 || l1+l2 > span {
		t.Errorf("laps %v + %v exceed their span %v", l1, l2, span)
	}

	var nilRec *BatchRec
	nilRec.AddExamined(1)
	nilRec.SetOutcome(1, 1, 1)
	nilRec.ObservePhases(time.Second, time.Second, time.Second)
	nilRec.StartPhases()
	if nilRec.Lap() != 0 {
		t.Error("nil recorder timed a lap")
	}
	if nilRec.Finish() != (BatchTrace{}) {
		t.Error("nil recorder produced a non-zero trace")
	}
}

// TestTraceRing covers the one ring both trace kinds share: the platforms'
// batch traces and the server's ingest drain traces.
func TestTraceRing(t *testing.T) {
	t.Run("BatchTrace", func(t *testing.T) {
		testRing(t, func(i int) BatchTrace { return BatchTrace{Batch: i} },
			func(b BatchTrace) int { return b.Batch })
	})
	t.Run("DrainTrace", func(t *testing.T) {
		testRing(t, func(i int) DrainTrace { return DrainTrace{Seq: i} },
			func(d DrainTrace) int { return d.Seq })
	})
}

func testRing[T any](t *testing.T, mk func(int) T, key func(T) int) {
	r := NewRing[T](3)
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatalf("Cap/Len = %d/%d", r.Cap(), r.Len())
	}
	for i := 0; i < 5; i++ {
		r.Add(mk(i))
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	got := r.Last(10) // over-asking clamps
	if len(got) != 3 || key(got[0]) != 2 || key(got[2]) != 4 {
		t.Errorf("Last(10) = %+v", got)
	}
	got = r.Last(2)
	if len(got) != 2 || key(got[0]) != 3 || key(got[1]) != 4 {
		t.Errorf("Last(2) = %+v", got)
	}
	if out := r.Last(0); out == nil || len(out) != 0 {
		t.Errorf("Last(0) = %v", out)
	}
	var nilRing *Ring[T]
	nilRing.Add(mk(0))
	if nilRing.Len() != 0 || nilRing.Cap() != 0 || nilRing.Last(5) == nil || len(nilRing.Last(5)) != 0 {
		t.Error("nil ring misbehaved")
	}
	if NewRing[T](0).Cap() != DefaultTraceDepth {
		t.Error("default capacity not applied")
	}
}

func TestRecordBatchFoldsStandardNames(t *testing.T) {
	reg := NewRegistry()
	tr := BatchTrace{
		Workers: 5, Tasks: 9, Assigned: 3, Deferred: 1, Rogue: 2,
		MemoHits: 10, MemoMisses: 2,
		CandidatesExamined: 40, CandidatesAdmitted: 12,
		IndexBuildMS: 1.5, AllocMS: 2.5, DispatchMS: 0.5,
	}
	RecordBatch(reg, tr)
	RecordBatch(reg, tr)
	s := reg.Snapshot()
	if s.Counters[MBatchesTotal] != 2 {
		t.Errorf("%s = %d", MBatchesTotal, s.Counters[MBatchesTotal])
	}
	if s.Counters[MAssignedTotal] != 6 || s.Counters[MRogueTotal] != 4 {
		t.Errorf("allocation counters = %v", s.Counters)
	}
	if s.Counters[MMemoHitsTotal] != 20 || s.Counters[MCandExaminedTotal] != 80 {
		t.Errorf("memo/pruning counters = %v", s.Counters)
	}
	if s.Gauges[MBatchWorkersGauge] != 5 || s.Gauges[MBatchTasksGauge] != 9 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if s.Histograms[TPhaseAlloc].Count != 2 || s.Histograms[TPhaseAlloc].Sum != 0.005 {
		t.Errorf("alloc histogram = %+v", s.Histograms[TPhaseAlloc])
	}
}
