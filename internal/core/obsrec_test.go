package core

import (
	"math/rand"
	"testing"

	"dasc/internal/model"
	"dasc/internal/obs"
)

// TestBatchRecorderCountsIndexBuild: the per-batch recorder sees the pruned
// build's probe and admission counts, and admitted pairs equal the index's
// feasible-pair count exactly.
func TestBatchRecorderCountsIndexBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	in := randomInstance(rng, 40, 60, 5, true)
	b := NewStaticBatch(in)
	rec := obs.NewBatchRec(0, 0)
	b.SetRecorder(rec)
	idx := b.Index()

	tr := rec.Finish()
	if tr.CandidatesAdmitted != int64(idx.FeasiblePairs()) {
		t.Errorf("admitted = %d, FeasiblePairs = %d", tr.CandidatesAdmitted, idx.FeasiblePairs())
	}
	if tr.CandidatesExamined < tr.CandidatesAdmitted {
		t.Errorf("examined (%d) < admitted (%d)", tr.CandidatesExamined, tr.CandidatesAdmitted)
	}
	// The pruning must examine fewer pairs than the full cross product.
	full := int64(len(b.Workers) * len(b.Tasks))
	if tr.CandidatesExamined > full {
		t.Errorf("examined (%d) > full scan (%d)", tr.CandidatesExamined, full)
	}

	// TravelCost served from the memo counts hits; a pair outside the index
	// counts a miss.
	if len(idx.StrategySet(0)) > 0 {
		before := rec.Finish().MemoHits
		idx.TravelCost(0, int(idx.StrategySet(0)[0]))
		if rec.Finish().MemoHits != before+1 {
			t.Error("memoized TravelCost did not count a hit")
		}
	}
}

// TestBatchRecorderNilIsNoop: every instrumented core path works with no
// recorder installed and a nil-recorder batch produces the same index.
func TestBatchRecorderNilIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	in := randomInstance(rng, 20, 30, 4, true)
	plain := NewStaticBatch(in)
	recd := NewStaticBatch(in)
	recd.SetRecorder(obs.NewBatchRec(0, 0))
	a, bb := plain.Index(), recd.Index()
	if a.FeasiblePairs() != bb.FeasiblePairs() {
		t.Errorf("recorder changed the index: %d vs %d pairs", a.FeasiblePairs(), bb.FeasiblePairs())
	}
	if plain.Recorder() != nil {
		t.Error("recorder set without SetRecorder")
	}
}

// TestEngineCacheRecordsPerBatchOutcomes drives the cache across batches and
// checks the per-batch trace mirrors the cache's cumulative stats.
func TestEngineCacheRecordsPerBatchOutcomes(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	in := randomInstance(rng, 30, 40, 5, true)
	cache := NewEngineCache()

	// Batch 0: full rebuild.
	b0 := NewStaticBatch(in)
	rec0 := obs.NewBatchRec(0, 0)
	b0.SetRecorder(rec0)
	cache.Attach(b0)
	tr0 := rec0.Finish()
	if !tr0.FullRebuild {
		t.Error("first attach not recorded as a full rebuild")
	}
	if tr0.WorkersRebuilt != len(b0.Workers) {
		t.Errorf("rebuilt = %d, want %d", tr0.WorkersRebuilt, len(b0.Workers))
	}
	if tr0.WorkersRevalidated != 0 {
		t.Errorf("revalidated = %d on a full rebuild", tr0.WorkersRevalidated)
	}

	// Batch 1: same worker states, clock advanced — everything revalidates,
	// cached travel times count as memo hits.
	var bws []BatchWorker
	for i := range in.Workers {
		bws = append(bws, BatchWorker{
			W: &in.Workers[i], Loc: in.Workers[i].Loc,
			ReadyAt: in.Workers[i].Start + 1, DistBudget: in.Workers[i].MaxDist,
		})
	}
	var tasks []*model.Task
	for i := range in.Tasks {
		tasks = append(tasks, &in.Tasks[i])
	}
	b1 := NewBatch(in, bws, tasks, nil)
	rec1 := obs.NewBatchRec(1, 1)
	b1.SetRecorder(rec1)
	cache.Attach(b1)
	if err := b1.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
	tr1 := rec1.Finish()
	if tr1.FullRebuild {
		t.Error("steady-state batch recorded as full rebuild")
	}
	if tr1.WorkersRevalidated != len(bws) {
		t.Errorf("revalidated = %d, want %d", tr1.WorkersRevalidated, len(bws))
	}
	if tr1.MemoHits == 0 {
		t.Error("revalidation reused no memoized travel times")
	}
	// VerifyIndex's reference rebuild must not leak into the trace: the
	// revalidation path examines only arrivals, of which there are none.
	if tr1.CandidatesExamined != 0 {
		t.Errorf("examined = %d on a churn-free revalidation", tr1.CandidatesExamined)
	}
	// Cached survivors are memo hits, not admissions: only pairs the exact
	// predicate admitted count, and no pair ran it.
	if tr1.CandidatesAdmitted != 0 {
		t.Errorf("admitted = %d on a churn-free revalidation", tr1.CandidatesAdmitted)
	}
	st := cache.Stats()
	if st.WorkersReused != tr1.WorkersRevalidated {
		t.Errorf("cumulative reused (%d) != batch-1 revalidated (%d)", st.WorkersReused, tr1.WorkersRevalidated)
	}
}
