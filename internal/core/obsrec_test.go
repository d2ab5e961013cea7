package core

import (
	"math/rand"
	"testing"

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
