package server

import (
	"fmt"
	"math"
	"testing"

	"dasc/internal/core"
	"dasc/internal/gen"
	"dasc/internal/model"
	"dasc/internal/sim"
)

// TestServerMatchesSimBatches registers a generated instance on a platform
// and ticks it on the simulator's batch grid: both run the same batch
// kernel, so every tick must assign exactly the valid pairs the simulator's
// batch of the same index assigned.
func TestServerMatchesSimBatches(t *testing.T) {
	const interval, service = 3, 2
	for _, seed := range []int64{1, 5, 9} {
		c := gen.DefaultSynthetic().Scale(0.02)
		c.Seed = seed
		in, err := gen.Synthetic(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []string{core.NameGreedy, core.NameGG, core.NameGame, core.NameClosest} {
			t.Run(fmt.Sprintf("%s/seed%d", alg, seed), func(t *testing.T) {
				alloc, _ := core.NewByName(alg, seed)
				simBatches := map[int]string{}
				sp, err := sim.New(in, sim.Config{
					Allocator: alloc, BatchInterval: interval, ServiceTime: service,
					OnBatch: func(r sim.BatchResult) { simBatches[r.Index] = fmt.Sprint(r.Assignment.Pairs) },
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sp.Run()
				if err != nil {
					t.Fatal(err)
				}

				alloc, _ = core.NewByName(alg, seed)
				p, err := NewPlatform(Config{Allocator: alloc, ServiceTime: service})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range in.Workers {
					if _, err := p.AddWorker(w); err != nil {
						t.Fatal(err)
					}
				}
				for _, task := range in.Tasks {
					if _, err := p.AddTask(task); err != nil {
						t.Fatal(err)
					}
				}
				horizon, start := 0.0, math.Inf(1)
				for i := range in.Workers {
					horizon = math.Max(horizon, in.Workers[i].Expiry())
					start = math.Min(start, in.Workers[i].Start)
				}
				for i := range in.Tasks {
					horizon = math.Max(horizon, in.Tasks[i].Deadline())
					start = math.Min(start, in.Tasks[i].Start)
				}
				ticks := 0
				for k := 0; ; k++ {
					now := start + float64(k)*interval
					out, err := p.Tick(now)
					if err != nil {
						t.Fatal(err)
					}
					ticks++
					want, ok := simBatches[k]
					if !ok {
						want = fmt.Sprint([]model.Pair{})
					}
					if got := fmt.Sprint(out.Assigned); got != want {
						t.Fatalf("batch %d at t=%v: server assigned %s, simulator %s", k, now, got, want)
					}
					if now >= horizon {
						break
					}
				}
				if ticks != res.Batches {
					t.Fatalf("server ran %d ticks, simulator %d batches", ticks, res.Batches)
				}
				if got := p.Snapshot().AssignedTasks; got != res.AssignedPairs {
					t.Fatalf("server assigned %d tasks, simulator %d pairs", got, res.AssignedPairs)
				}
			})
		}
	}
}
