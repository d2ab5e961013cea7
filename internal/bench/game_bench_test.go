package bench

import (
	"testing"

	"dasc/internal/core"
	"dasc/internal/model"
)

// gameBenchInstance generates the fig10-max workload the game benchmarks
// run on (5K workers / 8K tasks — largestRegistryInstance's sweep point).
func gameBenchInstance(b *testing.B) *model.Instance {
	b.Helper()
	w := DefaultSyntheticWorkload()
	w.Syn.Tasks = 8000
	in, err := w.Generate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// benchmarkGameAssign measures the DASC_Game assign phase alone: the batch
// index is pre-built outside the timer, so the numbers isolate the
// best-response sweep + resolution the worklist engine optimises.
func benchmarkGameAssign(b *testing.B, disableWorklist bool) {
	in := gameBenchInstance(b)
	g := core.NewGame(core.GameOptions{Seed: 1, DisableWorklist: disableWorklist})

	// Differential gate: every bench run first proves the worklist engine
	// bit-exact against the naive sweep on this exact batch, so a speedup
	// number can never come from a diverging engine.
	verify := core.NewStaticBatch(in)
	verify.Index()
	if err := g.VerifyWorklist(verify); err != nil {
		b.Fatal(err)
	}

	// Assign does not mutate the batch, so one pre-indexed batch serves every
	// iteration; the timer sees only the best-response sweep + resolution.
	batch := core.NewStaticBatch(in)
	batch.Index()
	var rounds, evaluated, skipped int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tr := g.AssignTraced(batch)
		rounds = int64(tr.Rounds)
		evaluated, skipped = tr.Evaluated, tr.Skipped
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(evaluated), "evaluated")
	b.ReportMetric(float64(skipped), "skipped")
}

// BenchmarkGameAssignWorklist is the default engine: incremental dirty-worker
// sweep over the pooled CSR game state.
func BenchmarkGameAssignWorklist(b *testing.B) { benchmarkGameAssign(b, false) }

// BenchmarkGameAssignNaive is Algorithm 3's full sweep — every worker's whole
// strategy set re-evaluated every round (GameOptions.DisableWorklist).
func BenchmarkGameAssignNaive(b *testing.B) { benchmarkGameAssign(b, true) }
