package core

import (
	"testing"

	"dasc/internal/gen"
	"dasc/internal/model"
)

// fig10MaxBatch returns a mid-run batch of fig10's largest point (Table V
// defaults, 8K tasks, transitively closed dependencies): the tasks open at
// t = 40 pending, in ID order, and every other task whose deadline has
// passed satisfied — the dependency load of a paper-scale simulation batch.
func fig10MaxBatch(tb testing.TB) *Batch {
	tb.Helper()
	c := gen.DefaultSynthetic()
	c.Tasks = 8000
	in, err := gen.Synthetic(c)
	if err != nil {
		tb.Fatal(err)
	}
	const now = 40.0
	var tasks []*model.Task
	var sat model.TaskFlags
	for i := range in.Tasks {
		t := &in.Tasks[i]
		switch {
		case t.Start <= now && now <= t.Deadline():
			tasks = append(tasks, t)
		case t.Deadline() < now && i%2 == 0:
			sat.Set(t.ID)
		}
	}
	return NewBatch(in, nil, tasks, sat)
}

// wiringSink keeps the benchmarked builds from being optimised away.
var wiringSink *depWiring

// BenchmarkBatchWiring measures one batch's dependency resolution at paper
// scale: the dense pooled-scratch build against the map-based oracle it
// replaced.
func BenchmarkBatchWiring(b *testing.B) {
	batch := fig10MaxBatch(b)
	entries := 0
	for _, t := range batch.Tasks {
		entries += len(t.Deps)
	}
	sat := satisfiedMap(batch.Satisfied)
	for _, bc := range []struct {
		name  string
		build func() *depWiring
	}{
		{"dense", func() *depWiring { return buildDepWiring(batch) }},
		{"map-oracle", func() *depWiring { return oracleWiring(batch, sat) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wiringSink = bc.build()
			}
			b.ReportMetric(float64(len(batch.Tasks)), "pending")
			b.ReportMetric(float64(entries), "dep-entries")
		})
	}
}
